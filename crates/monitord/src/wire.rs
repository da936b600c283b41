//! Newline-delimited-JSON transport: one [`CounterSnapshot`] per line.
//!
//! [`feed_lines`] pumps any `BufRead` (stdin, a pipe, a socket stream)
//! into a service's [`IngestHandle`]; [`serve_unix`] accepts connections
//! on a Unix-domain socket and pumps each one. Malformed lines are
//! counted and skipped rather than killing the stream — a service that
//! dies on one bad producer line is not a service.
//!
//! [`decode_line`] scans a line of the exact shape [`snapshot_line`]
//! emits in place, without building a `Value` tree, and hands every other
//! input to `serde_json::from_str` unchanged — so which lines are
//! accepted, and as what, stays `serde_json`'s decision.

use crate::service::IngestHandle;
use flowpulse::snapshot::CounterSnapshot;
use std::io::BufRead;

/// What a transport saw while pumping lines.
#[derive(Copy, Clone, Default, Debug)]
pub struct WireStats {
    /// Non-empty lines read.
    pub lines: u64,
    /// Lines that failed to parse as a snapshot (skipped).
    pub malformed: u64,
    /// Well-formed snapshots the queue rejected (drop policy / closed).
    pub rejected: u64,
}

/// Serialize one snapshot as a wire line (no trailing newline).
pub fn snapshot_line(s: &CounterSnapshot) -> String {
    serde_json::to_string(s).expect("snapshot serializes")
}

/// Decode one wire line (no surrounding whitespace): the same `Ok` value
/// or an `Err` exactly when `serde_json::from_str::<CounterSnapshot>`
/// gives one.
pub fn decode_line(line: &str) -> Result<CounterSnapshot, serde_json::Error> {
    match scan_canonical(line) {
        Some(snap) => Ok(snap),
        None => serde_json::from_str(line),
    }
}

/// The unread rest of a line being scanned by [`scan_canonical`].
struct Scan<'a>(&'a str);

impl<'a> Scan<'a> {
    fn lit(&mut self, lit: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(lit)?;
        Some(())
    }

    /// A plain decimal integer: digits only, no leading zero, fits `u64`.
    fn uint(&mut self) -> Option<u64> {
        let mut n = 0u64;
        let mut digits = 0;
        for &b in self.0.as_bytes() {
            if !b.is_ascii_digit() {
                break;
            }
            n = n.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            digits += 1;
        }
        if digits == 0 || (digits > 1 && self.0.as_bytes()[0] == b'0') {
            return None;
        }
        self.0 = &self.0[digits..];
        Some(n)
    }

    fn uint32(&mut self) -> Option<u32> {
        u32::try_from(self.uint()?).ok()
    }

    /// The contents of a string up to its closing quote, if it holds no
    /// escape and no control byte. The opening quote is already consumed.
    fn plain_str(&mut self) -> Option<&'a str> {
        let end = self
            .0
            .bytes()
            .position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
        if self.0.as_bytes()[end] != b'"' {
            return None;
        }
        // `end` holds an ASCII byte, so both cuts are char boundaries.
        let s = &self.0[..end];
        self.0 = &self.0[end + 1..];
        Some(s)
    }
}

/// Scan a line of exactly the shape [`snapshot_line`] emits: keys in
/// declaration order, no whitespace, plain decimal integers, a fabric id
/// without escapes. `None` means "not that shape", never "malformed".
fn scan_canonical(line: &str) -> Option<CounterSnapshot> {
    let mut s = Scan(line);
    s.lit("{\"fabric\":\"")?;
    let fabric = s.plain_str()?;
    s.lit(",\"job\":")?;
    let job = s.uint32()?;
    s.lit(",\"iter\":")?;
    let iter = s.uint32()?;
    s.lit(",\"n_leaves\":")?;
    let n_leaves = s.uint32()?;
    s.lit(",\"n_vspines\":")?;
    let n_vspines = s.uint32()?;
    s.lit(",\"t_ns\":")?;
    let t_ns = s.uint()?;
    s.lit(",\"bytes\":[")?;
    // Every cell takes at least two bytes of the line, which bounds the
    // allocation by the input whatever the dimensions claim.
    let cells = (u64::from(n_leaves) * u64::from(n_vspines)).min(s.0.len() as u64 / 2 + 1);
    let mut bytes = Vec::with_capacity(cells as usize);
    if s.lit("]").is_none() {
        loop {
            bytes.push(s.uint()?);
            if s.lit(",").is_none() {
                s.lit("]")?;
                break;
            }
        }
    }
    s.lit(",\"last\":")?;
    let last = if s.lit("true").is_some() {
        true
    } else {
        s.lit("false")?;
        false
    };
    s.lit("}")?;
    s.0.is_empty().then(|| CounterSnapshot {
        fabric: fabric.to_owned(),
        job,
        iter,
        n_leaves,
        n_vspines,
        t_ns,
        bytes,
        last,
    })
}

/// Pump newline-delimited snapshots from `reader` into `handle` until
/// EOF. Empty lines are ignored; malformed lines are counted and logged
/// to stderr (first few only).
pub fn feed_lines<R: BufRead>(mut reader: R, handle: &IngestHandle) -> std::io::Result<WireStats> {
    let mut stats = WireStats::default();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        stats.lines += 1;
        match decode_line(t) {
            Ok(snap) => {
                if !handle.push(snap) {
                    stats.rejected += 1;
                }
            }
            Err(e) => {
                stats.malformed += 1;
                if stats.malformed <= 3 {
                    eprintln!("fp-monitord: skipping malformed line: {e}");
                }
            }
        }
    }
    Ok(stats)
}

/// Accept connections on a Unix-domain socket and pump each one through
/// [`feed_lines`]. Connections are served sequentially — producers that
/// need concurrency multiplex snapshots onto one connection (lines are
/// self-describing, so interleaving streams on a single pipe is the
/// normal case). Stops after `max_conns` connections when given (tests,
/// bounded demos); serves forever otherwise.
#[cfg(unix)]
pub fn serve_unix(
    listener: &std::os::unix::net::UnixListener,
    handle: &IngestHandle,
    max_conns: Option<u64>,
) -> std::io::Result<WireStats> {
    let mut total = WireStats::default();
    for (served, conn) in listener.incoming().enumerate() {
        let conn = conn?;
        let s = feed_lines(std::io::BufReader::new(conn), handle)?;
        total.lines += s.lines;
        total.malformed += s.malformed;
        total.rejected += s.rejected;
        if max_conns.is_some_and(|m| served as u64 + 1 >= m) {
            break;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Monitord, ServiceConfig};

    fn snaps(fabric: &str) -> Vec<CounterSnapshot> {
        (0..3u32)
            .map(|i| CounterSnapshot {
                fabric: fabric.into(),
                job: 1,
                iter: i,
                n_leaves: 2,
                n_vspines: 2,
                t_ns: 100 * u64::from(i),
                bytes: if i == 2 {
                    vec![900, 1000, 1000, 1000]
                } else {
                    vec![1000, 1000, 1000, 1000]
                },
                last: i == 2,
            })
            .collect()
    }

    #[test]
    fn ndjson_feed_round_trips_and_skips_garbage() {
        let svc = Monitord::spawn(ServiceConfig::default());
        let mut wire = String::new();
        for s in snaps("pipe-0") {
            wire.push_str(&snapshot_line(&s));
            wire.push('\n');
        }
        wire.push_str("{not json}\n\n");
        let stats = feed_lines(wire.as_bytes(), &svc.handle()).unwrap();
        assert_eq!((stats.lines, stats.malformed, stats.rejected), (4, 1, 0));
        let report = svc.shutdown();
        assert_eq!(report.streams.len(), 1);
        assert_eq!(report.streams[0].fabric, "pipe-0");
        assert_eq!(report.streams[0].snapshots, 3);
        assert_eq!(report.streams[0].alarms.len(), 1, "iter-2 dip must alarm");
    }

    /// `decode_line` and `serde_json` give the same value or both refuse.
    fn agree(line: &str) -> Result<(), String> {
        match (
            decode_line(line),
            serde_json::from_str::<CounterSnapshot>(line),
        ) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Err(_), Err(_)) => Ok(()),
            (a, b) => Err(format!("{line:?}: decode_line {a:?} vs serde_json {b:?}")),
        }
    }

    /// `{"k":v,…}` from already-rendered values.
    fn render(fields: &[(String, String)]) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    /// The canonical line split into its `(key, rendered value)` pairs.
    fn fields_of(s: &CounterSnapshot) -> Vec<(String, String)> {
        vec![
            ("fabric".into(), serde_json::to_string(&s.fabric).unwrap()),
            ("job".into(), s.job.to_string()),
            ("iter".into(), s.iter.to_string()),
            ("n_leaves".into(), s.n_leaves.to_string()),
            ("n_vspines".into(), s.n_vspines.to_string()),
            ("t_ns".into(), s.t_ns.to_string()),
            ("bytes".into(), serde_json::to_string(&s.bytes).unwrap()),
            ("last".into(), s.last.to_string()),
        ]
    }

    const FABRICS: [&str; 8] = [
        "fabric-001",
        "",
        "dc7/pod 3:rail-é✓",
        "quo\"te",
        "back\\slash",
        "tab\there",
        "ctl\u{1}byte",
        "}],\"last\":true}",
    ];

    /// Number spellings a producer that is not `snapshot_line` might emit.
    const NUMBERS: [&str; 14] = [
        "0",
        "007",
        "00",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "-1",
        "-0",
        "1.0",
        "1.5",
        "1e3",
        "+1",
    ];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Canonical lines take the in-place path and decode to what was
        /// encoded; every mutation of one decodes as `serde_json` says.
        #[test]
        fn decode_line_agrees_with_serde_json(
            fabric in 0usize..FABRICS.len(),
            ids in (0u32..=u32::MAX, 0u32..40, 0u32..=u32::MAX),
            dims in (0u32..5, 0u32..5),
            cells in collection::vec((0u64..=u64::MAX, 0u32..64), 0..20),
            t_ns in 0u64..=u64::MAX,
            mutation in (0usize..12, 0usize..8, 0usize..NUMBERS.len(), 0usize..4096),
        ) {
            let snap = CounterSnapshot {
                fabric: FABRICS[fabric].into(),
                // Shifts spread the values over every digit count.
                job: ids.0 >> ids.1.min(31),
                iter: ids.2 >> ids.1.min(31),
                n_leaves: dims.0,
                n_vspines: dims.1,
                t_ns,
                bytes: cells.iter().map(|&(v, s)| v >> s).collect(),
                last: t_ns % 2 == 0,
            };
            let line = snapshot_line(&snap);
            prop_assert_eq!(decode_line(&line).map_err(|e| e.to_string()), Ok(snap.clone()));
            let plain = !snap.fabric.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20);
            prop_assert_eq!(scan_canonical(&line).is_some(), plain, "{}", line);

            let (kind, field, number, at) = mutation;
            let at = at % (line.len() + 1);
            let cut = (0..=at).rev().find(|&i| line.is_char_boundary(i)).unwrap();
            let mut fields = fields_of(&snap);
            let mutated = match kind {
                0 => {
                    // Every truncation, not just one.
                    for end in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                        agree(&line[..end])?;
                    }
                    line[..cut].to_string()
                }
                1 => format!("{}{}{}", &line[..cut], [" ", "\t", "\r"][number % 3], &line[cut..]),
                2 => {
                    fields.swap(field, (field + 1 + number) % 8);
                    render(&fields)
                }
                3 => {
                    fields.remove(field);
                    render(&fields)
                }
                4 => {
                    let mut dup = fields[field].clone();
                    if number % 2 == 0 {
                        dup.1 = NUMBERS[number].into();
                    }
                    fields.insert(at % 9, dup);
                    render(&fields)
                }
                5 => {
                    fields.insert(at % 9, ("extra".into(), NUMBERS[number].into()));
                    render(&fields)
                }
                6 => {
                    // A weird number in a scalar field …
                    fields[1 + field % 5].1 = NUMBERS[number].into();
                    render(&fields)
                }
                7 => {
                    // … or among the cells.
                    let mut cells: Vec<String> = snap.bytes.iter().map(u64::to_string).collect();
                    cells.insert(at % (cells.len() + 1), NUMBERS[number].into());
                    fields[6].1 = format!("[{}]", cells.join(","));
                    render(&fields)
                }
                8 => {
                    // Raw (unescaped) and hand-escaped fabric spellings.
                    fields[0].1 = [
                        "\"raw\u{1}ctl\"",
                        "\"raw\ttab\"",
                        "\"esc\\u00e9\"",
                        "\"esc\\/slash\"",
                        "\"bad\\qescape\"",
                        "\"open",
                        "null",
                        "7",
                    ][field]
                        .into();
                    render(&fields)
                }
                9 => format!("{line}{}", ["x", "}", ",", "\n", " ", "{}", "\u{0}", "]"][field]),
                10 => {
                    fields[7].1 = ["True", "1", "null", "\"true\"", "tru", "falsey", "0", ""][field]
                        .into();
                    render(&fields)
                }
                _ => {
                    fields[6].1 = ["[", "[,]", "[1,]", "[1 ,2]", "[[1]]", "{}", "[1,2", "[-]"][field]
                        .into();
                    render(&fields)
                }
            };
            agree(&mutated)?;
        }
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_transport_delivers_snapshots() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("fp-monitord-sock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("monitord.sock");
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();

        let svc = Monitord::spawn(ServiceConfig::default());
        let handle = svc.handle();
        let client = {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut c = std::os::unix::net::UnixStream::connect(&path).unwrap();
                for s in snaps("sock-0") {
                    writeln!(c, "{}", snapshot_line(&s)).unwrap();
                }
            })
        };
        let stats = serve_unix(&listener, &handle, Some(1)).unwrap();
        client.join().unwrap();
        assert_eq!(stats.lines, 3);
        let report = svc.shutdown();
        assert_eq!(report.streams[0].fabric, "sock-0");
        assert!(report.streams[0].closed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
