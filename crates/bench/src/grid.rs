//! The detection grid: fault-free trials and trials with one injected
//! fault, scored together. Fig. 5(a)–(c), §6 and the A1, A2, A4.1 and
//! model ablations are all this shape, so the spec order, the campaign and
//! the clean/faulty slicing live here once; a sweep keeps its axes, rows
//! and verdict.

use crate::config::RunConfig;
use flowpulse::eval::split_devs;
use flowpulse::prelude::{run_trial, FaultSpec, InjectedFault, Rates, TrialResult, TrialSpec};

/// A base trial and the faults injected into it. The cell's fault-free
/// trials are shared by all of its faults.
pub struct Cell {
    pub base: TrialSpec,
    pub faults: Vec<FaultSpec>,
}

/// One (cell, fault) pair of a finished grid.
pub struct Pair<'a> {
    /// The cell's fault-free trials, one per clean seed.
    pub clean: &'a [TrialResult],
    /// This fault's trials, one per fault seed.
    pub faulty: &'a [TrialResult],
    /// Iteration tallies over both slices, at each trial's own threshold.
    pub rates: Rates,
    /// Largest clean-iteration deviation of the fault-free trials (0 if
    /// there are none).
    pub noise_floor: f64,
}

/// A finished grid: every result in spec order and the shape that
/// slices it.
pub struct Grid {
    results: Vec<TrialResult>,
    faults: Vec<usize>,
    clean: usize,
    faulty: usize,
}

/// A permanent spine→leaf drop of `rate` from iteration `at_iter`.
pub fn drop_fault(rate: f64, at_iter: u32) -> FaultSpec {
    FaultSpec {
        kind: InjectedFault::Drop { rate },
        at_iter,
        heal_at_iter: None,
        bidirectional: false,
    }
}

/// The grid's spec list: per cell, the base over `clean_seeds` once, then
/// each fault over `fault_seeds`.
pub fn specs(cells: &[Cell], clean_seeds: &[u64], fault_seeds: &[u64]) -> Vec<TrialSpec> {
    let mut specs = Vec::new();
    for cell in cells {
        let trial = |seed, fault| TrialSpec {
            seed,
            fault,
            ..cell.base.clone()
        };
        specs.extend(clean_seeds.iter().map(|&s| trial(s, None)));
        for &f in &cell.faults {
            specs.extend(fault_seeds.iter().map(|&s| trial(s, Some(f))));
        }
    }
    specs
}

impl RunConfig {
    /// Run `cells` over the `clean` and `faulty` seeds as one
    /// [`run_logged`](RunConfig::run_logged) campaign called `name`, in
    /// [`specs`] order.
    pub fn run_grid(&self, name: &str, cells: &[Cell], clean: &[u64], faulty: &[u64]) -> Grid {
        let specs = specs(cells, clean, faulty);
        Grid {
            results: self.run_logged(name, &specs, |s| s, run_trial, serde::Value::Null),
            faults: cells.iter().map(|c| c.faults.len()).collect(),
            clean: clean.len(),
            faulty: faulty.len(),
        }
    }
}

impl Grid {
    /// Per cell, in cell order, its pairs in fault order.
    pub fn cells(&self) -> impl Iterator<Item = Vec<Pair<'_>>> {
        let mut rest = self.results.as_slice();
        let mut take = move |n: usize| {
            let (head, tail) = rest.split_at(n);
            rest = tail;
            head
        };
        self.faults.iter().map(move |&n| {
            let clean = take(self.clean);
            let noise_floor = clean
                .iter()
                .flat_map(|t| split_devs(t).0)
                .fold(0.0, f64::max);
            (0..n)
                .map(|_| {
                    let faulty = take(self.faulty);
                    Pair {
                        clean,
                        faulty,
                        rates: Rates::from_trials(clean.iter().chain(faulty)),
                        noise_floor,
                    }
                })
                .collect()
        })
    }

    /// Every pair, cell by cell.
    pub fn pairs(&self) -> impl Iterator<Item = Pair<'_>> {
        self.cells().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowpulse::prelude::Alarm;

    fn cell(leaves: u32, faults: Vec<FaultSpec>) -> Cell {
        Cell {
            base: TrialSpec {
                leaves,
                spines: 2,
                bytes_per_node: 64 * 1024,
                iterations: 2,
                ..TrialSpec::default()
            },
            faults,
        }
    }

    /// `(leaves, seed, fault)` of each spec: enough to name its slot.
    fn keys(specs: &[TrialSpec]) -> Vec<(u32, u64, Option<FaultSpec>)> {
        specs.iter().map(|s| (s.leaves, s.seed, s.fault)).collect()
    }

    /// `grid` finished on stand-in results: the result of spec `i` has
    /// two iterations at deviation `i / 1000`, the fault (if any) active
    /// in the second, and an alarm there when its seed is even.
    fn finish(cells: &[Cell], clean: &[u64], faulty: &[u64]) -> (Vec<TrialSpec>, Grid) {
        let specs = specs(cells, clean, faulty);
        let template = run_trial(&cells[0].base);
        let results = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut r = template.clone();
                r.iter_max_dev = vec![(0, i as f64 / 1000.0), (1, i as f64 / 1000.0)];
                r.fault_iter = s.fault.map(|f| f.at_iter);
                r.heal_iter = None;
                r.alarms = (s.seed % 2 == 0)
                    .then(|| Alarm {
                        iter: 1,
                        leaf: 0,
                        deviations: Vec::new(),
                        fresh: true,
                    })
                    .into_iter()
                    .collect();
                r
            })
            .collect();
        let grid = Grid {
            results,
            faults: cells.iter().map(|c| c.faults.len()).collect(),
            clean: clean.len(),
            faulty: faulty.len(),
        };
        (specs, grid)
    }

    /// The spec a stand-in result came from.
    fn origin<'a>(specs: &'a [TrialSpec], r: &TrialResult) -> &'a TrialSpec {
        &specs[(r.iter_max_dev[0].1 * 1000.0).round() as usize]
    }

    /// A cell with several faults runs its clean seeds once, then each
    /// fault over the fault seeds; every pair sees the same clean trials.
    #[test]
    fn faults_share_their_cells_clean_trials() {
        let (a, b, c) = (
            drop_fault(0.01, 1),
            drop_fault(0.02, 1),
            drop_fault(0.03, 1),
        );
        let cells = [cell(4, vec![a, b]), cell(6, vec![c])];
        let (specs, grid) = finish(&cells, &[1, 2], &[7, 8, 9]);
        let mut want = vec![(4, 1, None), (4, 2, None)];
        want.extend([7, 8, 9].map(|s| (4, s, Some(a))));
        want.extend([7, 8, 9].map(|s| (4, s, Some(b))));
        want.extend([(6, 1, None), (6, 2, None)]);
        want.extend([7, 8, 9].map(|s| (6, s, Some(c))));
        assert_eq!(keys(&specs), want);

        let cells: Vec<Vec<Pair>> = grid.cells().collect();
        assert_eq!(cells.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1]);
        let (first, second) = (&cells[0], &cells[1]);
        assert!(std::ptr::eq(first[0].clean, first[1].clean));
        for (pair, fault) in first.iter().zip([a, b]).chain([(&second[0], c)]) {
            let leaves = pair.clean.iter().chain(pair.faulty);
            let leaves: Vec<u32> = leaves.map(|r| origin(&specs, r).leaves).collect();
            assert!(leaves.windows(2).all(|w| w[0] == w[1]), "{leaves:?}");
            let clean: Vec<_> = pair.clean.iter().map(|r| origin(&specs, r)).collect();
            assert_eq!(
                clean.iter().map(|s| (s.seed, s.fault)).collect::<Vec<_>>(),
                [(1, None), (2, None)]
            );
            let faulty: Vec<_> = pair.faulty.iter().map(|r| origin(&specs, r)).collect();
            let want: Vec<_> = [7, 8, 9].map(|s| (s, Some(fault))).into();
            assert_eq!(
                faulty.iter().map(|s| (s.seed, s.fault)).collect::<Vec<_>>(),
                want
            );
            // Clean: 2 trials × 2 iterations, seed 2 alarms on its second.
            // Faulty: seed 8 alarms on its faulty iteration.
            let rates = Rates {
                tp: 1,
                fn_: 2,
                fp: 1,
                tn: 3 + 3,
            };
            assert_eq!(pair.rates, rates);
            let last_clean = specs
                .iter()
                .position(|s| std::ptr::eq(s, clean[1]))
                .unwrap();
            assert_eq!(pair.noise_floor, last_clean as f64 / 1000.0);
        }
        assert_eq!(grid.pairs().count(), 3);
    }

    /// With no clean seeds a cell is its faults alone: empty clean slices,
    /// a zero noise floor, rates over the fault trials.
    #[test]
    fn zero_clean_seeds_leave_only_the_faults() {
        let one_way = drop_fault(0.025, 1);
        let both = FaultSpec {
            bidirectional: true,
            ..one_way
        };
        let (specs, grid) = finish(&[cell(4, vec![one_way, both])], &[], &[3, 4]);
        let want = [
            (4, 3, Some(one_way)),
            (4, 4, Some(one_way)),
            (4, 3, Some(both)),
            (4, 4, Some(both)),
        ];
        assert_eq!(keys(&specs), want);
        let pairs: Vec<Pair> = grid.pairs().collect();
        assert_eq!(pairs.len(), 2);
        for (pair, fault) in pairs.iter().zip([one_way, both]) {
            assert!(pair.clean.is_empty());
            assert_eq!(pair.noise_floor, 0.0);
            let faulty: Vec<_> = pair.faulty.iter().map(|r| origin(&specs, r)).collect();
            assert!(faulty.iter().all(|s| s.fault == Some(fault)));
            assert_eq!(
                pair.rates,
                Rates {
                    tp: 1,
                    fn_: 1,
                    fp: 0,
                    tn: 2
                }
            );
        }
    }

    /// A one-fault cell is one pair: its clean seeds, then its fault seeds.
    #[test]
    fn one_fault_cell_is_one_pair() {
        let f = drop_fault(0.02, 1);
        let (specs, grid) = finish(&[cell(4, vec![f])], &[5], &[6]);
        assert_eq!(keys(&specs), [(4, 5, None), (4, 6, Some(f))]);
        let pairs: Vec<Pair> = grid.pairs().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(origin(&specs, &pairs[0].clean[0]).seed, 5);
        assert_eq!(origin(&specs, &pairs[0].faulty[0]).seed, 6);
        assert_eq!(
            pairs[0].rates,
            Rates {
                tp: 1,
                fn_: 0,
                fp: 0,
                tn: 3
            }
        );
        assert_eq!(pairs[0].noise_floor, 0.0);
    }
}
