//! Newline-delimited-JSON transport: one [`CounterSnapshot`] per line.
//!
//! [`feed_lines`] pumps any `BufRead` (stdin, a pipe, a socket stream)
//! into a service's [`IngestHandle`]; [`serve_unix`] accepts connections
//! on a Unix-domain socket and pumps each one. Malformed lines — bytes
//! that are not UTF-8 included — are counted and skipped rather than
//! killing the stream, and a connection that fails mid-read ends that
//! connection only: a service that dies on one bad producer line is not
//! a service.
//!
//! The decoder scans a line of the exact shape [`snapshot_line`]
//! emits in place, without building a `Value` tree — its cell list eight
//! bytes at a time — and hands every other input to `serde_json::from_str`
//! unchanged, so which lines are accepted, and as what, stays
//! `serde_json`'s decision. [`feed_lines`] scans the raw bytes it reads
//! (that shape is ASCII but for the fabric id, which the scan checks) and
//! checks a whole line for UTF-8 only before handing it to `serde_json`;
//! it scans into snapshots the service has finished with (the queue's
//! return lane), so a steady feed allocates nothing per line.

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
/// gives one. What [`feed_lines`] does per line, minus its buffer reuse;
/// the proptests pin the scanner to `serde_json` through it.
#[cfg(test)]
fn decode_line(line: &str) -> Result<CounterSnapshot, serde_json::Error> {
    let mut snap = CounterSnapshot::default();
    match scan_canonical(line.as_bytes(), &mut snap) {
        Some(()) => Ok(snap),
        None => serde_json::from_str(line),
    }
}

/// A line being scanned by [`scan_canonical`], and how far.
struct Scan<'a> {
    line: &'a [u8],
    at: usize,
}

impl<'a> Scan<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.line[self.at..]
    }

    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        if !self.rest().starts_with(lit) {
            return None;
        }
        self.at += lit.len();
        Some(())
    }

    /// A plain decimal integer: digits only, no leading zero, fits `u64`.
    fn uint(&mut self) -> Option<u64> {
        let digits = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let n = checked_uint(&self.rest()[..digits])?;
        self.at += digits;
        Some(n)
    }

    fn uint32(&mut self) -> Option<u32> {
        u32::try_from(self.uint()?).ok()
    }

    /// The contents of a string up to its closing quote, if it holds no
    /// escape and no control byte and is UTF-8. The opening quote is
    /// already consumed.
    fn plain_str(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        let end = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if rest[end] != b'"' {
            return None;
        }
        self.at += end + 1;
        std::str::from_utf8(&rest[..end]).ok()
    }

    /// A cell list after its `[`, through its `]`, onto `out`. Cells are
    /// found eight bytes at a time: in `w ^ 0x30…30` a digit's lane holds
    /// 0–9, and any other byte's lane is marked as a separator. Each cell
    /// is then read from the word that ends at its separator, so no cell
    /// waits on the previous one's value. A list whose `]` does not fall
    /// in a whole word of the line is not canonical: a line of
    /// [`snapshot_line`]'s shape has at least 14 more bytes after it.
    fn cells(&mut self, out: &mut Vec<u64>) -> Option<()> {
        if self.lit(b"]").is_some() {
            return Some(());
        }
        let line = self.line;
        let mut start = self.at;
        let mut word = self.at;
        while let Some(&bytes) = line[word..].first_chunk::<8>() {
            let mut seps = separators(u64::from_le_bytes(bytes));
            while seps != 0 {
                let end = word + seps.trailing_zeros() as usize / 8;
                seps &= seps - 1;
                out.push(cell(line, start, end)?);
                match line[end] {
                    b',' => start = end + 1,
                    b']' => {
                        self.at = end + 1;
                        return Some(());
                    }
                    _ => return None,
                }
            }
            word += 8;
        }
        None
    }
}

/// Every lane holding `'0'`: XOR with it maps the digits to 0–9 and every
/// other byte past 9, lane by lane. (Subtracting it instead lets a lane
/// below `'0'`, such as a `,`, borrow from the lane after it, so that a
/// `0` right after a comma reads as a non-digit.)
const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);
const LOW7: u64 = u64::from_le_bytes([0x7f; 8]);
const HIGH: u64 = u64::from_le_bytes([0x80; 8]);

/// The high bit of each lane of `w` that is not an ASCII digit: `x + 0x76`
/// reaches 0x80 exactly when a lane's `x` is past 9, masked to seven bits
/// first so that no lane carries into the next.
fn separators(w: u64) -> u64 {
    let x = w ^ ZEROS;
    (((x & LOW7) + u64::from_le_bytes([0x76; 8])) | x) & HIGH
}

/// The cell `line[start..end]`, all digits: none if empty, led by a zero,
/// or past `u64::MAX`. Up to 8 digits are read from one word; longer
/// cells take the checked per-digit loop.
fn cell(line: &[u8], start: usize, end: usize) -> Option<u64> {
    let len = end - start;
    if len == 0 || (len > 1 && line[start] == b'0') {
        return None;
    }
    match len {
        1..=8 => Some(swar8(line, end, len)),
        _ => checked_uint(&line[start..end]),
    }
}

/// The `len` (1–8) digits that end at `end`, from the one little-endian
/// word that ends there: the lanes before the number are zeroed, then
/// neighbouring lanes are combined into 2-, 4- and 8-digit values with
/// three multiplies. The last two overflow into bits the result does not
/// read, so they wrap by design. Every cell starts at least 21 bytes into
/// the line (after `{"fabric":"` and `,"bytes":[`), so `end - 8` is in
/// the line.
fn swar8(line: &[u8], end: usize, len: usize) -> u64 {
    let w = line[end - 8..]
        .first_chunk::<8>()
        .expect("a cell ends in the line");
    let x = (u64::from_le_bytes(*w) ^ ZEROS) & (u64::MAX << (8 * (8 - len)));
    // Each lane: 10 × its digit + the next lane's, at most 99.
    let x = x * 10 + (x >> 8);
    // Lanes 0 and 4, then 2 and 6: the four 2-digit pairs, most
    // significant first, summed into bits 32–63.
    let pairs = 0x0000_00ff_0000_00ff;
    let hi = (x & pairs).wrapping_mul(100 + (1_000_000 << 32));
    let lo = ((x >> 16) & pairs).wrapping_mul(1 + (10_000 << 32));
    (hi + lo) >> 32
}

/// `digits` (ASCII digits only) as a number with no leading zero that
/// fits `u64`.
fn checked_uint(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || (digits.len() > 1 && digits[0] == b'0') {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        n.checked_mul(10)?.checked_add(u64::from(b - b'0'))
    })
}

/// Scan a line of exactly the shape [`snapshot_line`] emits: keys in
/// declaration order, no whitespace, plain decimal integers, a fabric id
/// without escapes. `None` means "not that shape", never "malformed".
/// Everything but the fabric id is ASCII in that shape, so only the id is
/// checked for UTF-8.
///
/// Every field of `into` is overwritten, reusing the capacity its
/// `fabric` and `bytes` bring; after a `None` it holds leftovers.
fn scan_canonical(line: &[u8], into: &mut CounterSnapshot) -> Option<()> {
    let mut s = Scan { line, at: 0 };
    s.lit(b"{\"fabric\":\"")?;
    let fabric = s.plain_str()?;
    s.lit(b",\"job\":")?;
    into.job = s.uint32()?;
    s.lit(b",\"iter\":")?;
    into.iter = s.uint32()?;
    s.lit(b",\"n_leaves\":")?;
    into.n_leaves = s.uint32()?;
    s.lit(b",\"n_vspines\":")?;
    into.n_vspines = s.uint32()?;
    s.lit(b",\"t_ns\":")?;
    into.t_ns = s.uint()?;
    s.lit(b",\"bytes\":[")?;
    // Every cell takes at least two bytes of the line, which bounds the
    // allocation by the input whatever the dimensions claim.
    let cells =
        (u64::from(into.n_leaves) * u64::from(into.n_vspines)).min(s.rest().len() as u64 / 2 + 1);
    into.bytes.clear();
    into.bytes.reserve(cells as usize);
    s.cells(&mut into.bytes)?;
    s.lit(b",\"last\":")?;
    into.last = if s.lit(b"true").is_some() {
        true
    } else {
        s.lit(b"false")?;
        false
    };
    s.lit(b"}")?;
    if !s.rest().is_empty() {
        return None;
    }
    into.fabric.clear();
    into.fabric.push_str(fabric);
    Some(())
}

/// Pump newline-delimited snapshots from `reader` into `handle` until
/// EOF. Empty lines are ignored; malformed lines (not a snapshot, not
/// UTF-8, cut short by EOF) are counted and logged to stderr (first few
/// only). `Err` is a failed read, never a bad line.
pub fn feed_lines<R: BufRead>(reader: R, handle: &IngestHandle) -> std::io::Result<WireStats> {
    let mut stats = WireStats::default();
    pump(reader, handle, &mut stats)?;
    Ok(stats)
}

/// [`feed_lines`] onto running totals, which keep what was counted before
/// a failed read.
fn pump<R: BufRead>(
    mut reader: R,
    handle: &IngestHandle,
    stats: &mut WireStats,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    // Snapshots the service is done with, to decode the next lines into.
    let mut stash = Vec::new();
    while reader.read_until(b'\n', &mut line)? > 0 {
        if let Some(decoded) = decode_recycling(&line, &mut stash) {
            stats.lines += 1;
            match decoded {
                Ok(snap) => {
                    if !handle.0.push_recycling(snap, &mut stash) {
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
        line.clear();
    }
    Ok(())
}

/// One raw line read by [`feed_lines`], decoded into a snapshot off
/// `stash` when it has one; `None` for a line that is empty once trimmed.
/// A canonical line is taken in place: one that is `{…}` once ASCII
/// whitespace is cut is what `str::trim` leaves too, and its bytes are
/// UTF-8 because the scan checked them. Every other line is checked for
/// UTF-8, trimmed with `str::trim` and handed to `serde_json`.
fn decode_recycling(
    line: &[u8],
    stash: &mut Vec<CounterSnapshot>,
) -> Option<Result<CounterSnapshot, String>> {
    let mut snap = stash.pop().unwrap_or_default();
    if scan_canonical(line.trim_ascii(), &mut snap).is_some() {
        return Some(Ok(snap));
    }
    stash.push(snap);
    match std::str::from_utf8(line).map(str::trim) {
        Ok("") => None,
        Ok(text) => Some(serde_json::from_str(text).map_err(|e| e.to_string())),
        Err(e) => Some(Err(e.to_string())),
    }
}

/// Accept connections on a Unix-domain socket and pump each one through
/// [`feed_lines`]. Connections are served sequentially — producers that
/// need concurrency multiplex snapshots onto one connection (lines are
/// self-describing, so interleaving streams on a single pipe is the
/// normal case). A connection whose read fails is logged and dropped,
/// keeping what it delivered; `Err` means the listener itself failed.
/// Stops after `max_conns` connections when given (tests, bounded demos);
/// serves forever otherwise.
#[cfg(unix)]
pub fn serve_unix(
    listener: &std::os::unix::net::UnixListener,
    handle: &IngestHandle,
    max_conns: Option<u64>,
) -> std::io::Result<WireStats> {
    serve_conns(listener.incoming(), handle, max_conns)
}

/// [`serve_unix`] over any source of connections.
#[cfg(any(unix, test))]
fn serve_conns<C: std::io::Read>(
    conns: impl Iterator<Item = std::io::Result<C>>,
    handle: &IngestHandle,
    max_conns: Option<u64>,
) -> std::io::Result<WireStats> {
    let mut total = WireStats::default();
    for (served, conn) in conns.enumerate() {
        if let Err(e) = pump(std::io::BufReader::new(conn?), handle, &mut total) {
            eprintln!("fp-monitord: connection {served} dropped: {e}");
        }
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

    #[test]
    fn bad_bytes_and_a_cut_line_are_counted_not_fatal() {
        let svc = Monitord::spawn(ServiceConfig::default());
        let lines: Vec<String> = snaps("pipe-0").iter().map(snapshot_line).collect();
        let mut wire = Vec::new();
        wire.extend_from_slice(lines[0].as_bytes());
        wire.extend_from_slice(b"\n\xff\xfe garbage\n");
        wire.extend_from_slice(lines[1].as_bytes());
        wire.push(b'\n');
        wire.extend_from_slice(lines[2].as_bytes());
        wire.push(b'\n');
        // A producer that died mid-line: no closing brace, no newline.
        wire.extend_from_slice(&lines[0].as_bytes()[..lines[0].len() / 2]);
        let stats = feed_lines(&wire[..], &svc.handle()).unwrap();
        assert_eq!((stats.lines, stats.malformed, stats.rejected), (5, 2, 0));
        let report = svc.shutdown();
        assert_eq!(report.streams[0].snapshots, 3);
        assert!(report.streams[0].closed);
        assert_eq!(report.streams[0].alarms.len(), 1, "iter-2 dip must alarm");
    }

    /// Serves `data`, then fails like a peer that went away.
    struct ResetAfter<'a>(&'a [u8]);

    impl std::io::Read for ResetAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::ErrorKind::ConnectionReset.into());
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_reset_connection_does_not_stop_the_next_one() {
        let svc = Monitord::spawn(ServiceConfig::default());
        let mut broken = Vec::new();
        let mut healthy = Vec::new();
        for (a, b) in snaps("sock-a").iter().zip(&snaps("sock-b")) {
            broken.extend_from_slice(snapshot_line(a).as_bytes());
            broken.push(b'\n');
            healthy.extend_from_slice(snapshot_line(b).as_bytes());
            healthy.push(b'\n');
        }
        // Two whole lines and half of the third, then the reset.
        let cut = broken.len() - 20;
        let conns = vec![
            Ok(ResetAfter(&broken[..cut])),
            Ok(ResetAfter(&healthy)),
            Err(std::io::ErrorKind::Other.into()),
        ];
        // Both connections end in an error; the listener's own does not
        // arrive because `max_conns` stops the loop first.
        let stats = serve_conns(conns.into_iter(), &svc.handle(), Some(2)).unwrap();
        assert_eq!((stats.lines, stats.malformed, stats.rejected), (5, 0, 0));
        let report = svc.shutdown();
        let seen: Vec<(&str, u32, bool)> = report
            .streams
            .iter()
            .map(|s| (s.fabric.as_str(), s.snapshots, s.closed))
            .collect();
        assert_eq!(seen, [("sock-a", 2, false), ("sock-b", 3, true)]);

        let failing = vec![Err::<ResetAfter<'_>, _>(std::io::ErrorKind::Other.into())];
        let idle = Monitord::spawn(ServiceConfig::default());
        assert!(serve_conns(failing.into_iter(), &idle.handle(), None).is_err());
        idle.shutdown();
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

    /// Number spellings a producer that is not `snapshot_line` might emit;
    /// JSON refuses those from `007` on, except the `u64` edges.
    const NUMBERS: [&str; 20] = [
        "0",
        "007",
        "00",
        "-01",
        "-",
        "1.",
        "1e",
        "1e+",
        "1e400",
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

    /// A snapshot line whose cell list reads `cells`.
    fn with_cells(cells: &str) -> String {
        format!(
            "{{\"fabric\":\"f\",\"job\":1,\"iter\":2,\"n_leaves\":1,\"n_vspines\":3,\
             \"t_ns\":4,\"bytes\":[{cells}],\"last\":false}}"
        )
    }

    /// `line` decodes as `serde_json` says, and is taken in place exactly
    /// when it is what `snapshot_line` writes for its value.
    fn check_in_place(line: &str) -> Result<(), String> {
        agree(line)?;
        let canonical = matches!(
            serde_json::from_str::<CounterSnapshot>(line),
            Ok(s) if snapshot_line(&s) == line
        );
        let scanned = scan_canonical(line.as_bytes(), &mut CounterSnapshot::default());
        if scanned.is_some() != canonical {
            return Err(format!(
                "{line:?}: in place {scanned:?}, canonical {canonical}"
            ));
        }
        Ok(())
    }

    /// The block scanner's edges, each held to `serde_json` and to the
    /// in-place rule. Offsets are counted from the byte after `[`, where
    /// the scan's eight-byte words start.
    #[test]
    fn cell_scanner_edge_table() {
        let digits = "12345678901234567890";
        for len in 1..=20 {
            let cell = &digits[..len];
            for offset in 0..8 {
                // A first cell and its comma that put `cell` at `offset`.
                let pad = match offset {
                    0 => String::new(),
                    1 => "7".repeat(8) + ",",
                    k => "7".repeat(k - 1) + ",",
                };
                for tail in ["", ",0", ",5,", "]"] {
                    check_in_place(&with_cells(&format!("{pad}{cell}{tail}"))).unwrap();
                }
                check_in_place(&with_cells(&format!("{pad}0{cell}"))).unwrap();
            }
        }
        let max = u64::MAX.to_string();
        let past_max = "18446744073709551616";
        let (max_inside, past_max_last) = (format!("1,{max},2"), format!("1,{past_max}"));
        let lists = [
            // A `0` right after a comma, where a subtracting scan borrowed.
            "1,0,2",
            "0,0",
            "0",
            "10,0",
            "9,0,0,0,0,0,0,0,0,0",
            &max,
            past_max,
            &max_inside,
            &past_max_last,
            // Leading zeros.
            "00",
            "007",
            "1,01",
            "0000000000000000001",
            // Empty list, and empty cells.
            "",
            ",",
            "1,,2",
            "1,",
            // `]` on the first byte of the second and third words …
            "1234,678",
            "1,3,5,7,9,11,131",
            // … and on the last byte of the first and second.
            "1,2,3,4",
            "123456789,12345",
        ];
        for cells in lists {
            check_in_place(&with_cells(cells)).unwrap();
        }
        assert!(
            scan_canonical(with_cells(&max).as_bytes(), &mut CounterSnapshot::default()).is_some()
        );

        // What `feed_lines` reads, line ending included: a canonical line is
        // scanned into the stashed snapshot, anything else goes back to
        // `serde_json` and the stashed snapshot back onto the stash.
        let line = with_cells("1,0,20");
        let want = serde_json::from_str::<CounterSnapshot>(&line).unwrap();
        for (raw, in_place) in [
            (format!("{line}\r\n"), true),
            (format!(" \t{line}\n"), true),
            (format!("{line}\u{b}\n"), false),
            (format!("\u{a0}{line}\r\n"), false),
        ] {
            let mut stash = vec![CounterSnapshot::default()];
            let got = decode_recycling(raw.as_bytes(), &mut stash);
            assert_eq!(got, Some(Ok(want.clone())), "{raw:?}");
            assert_eq!(stash.is_empty(), in_place, "{raw:?}");
        }
        assert_eq!(decode_recycling(b" \r\n", &mut Vec::new()), None);
        // The fabric id `f` (byte 11) made a byte that is not UTF-8.
        let bad_fabric = [b"{\"fabric\":\"\xff".as_slice(), &line.as_bytes()[12..]].concat();
        assert!(matches!(
            decode_recycling(&bad_fabric, &mut Vec::new()),
            Some(Err(_))
        ));
    }

    /// Malformed numbers in every field and among the cells, and `\u`
    /// escapes in the fabric id: the decoder refuses what `serde_json`
    /// refuses, and reads a surrogate pair as its one character.
    #[test]
    fn refused_numbers_and_escapes_agree_with_serde_json() {
        let snap = snaps("f").remove(0);
        for number in ["01", "-01", "-", "1.", "1e", "1e+", "1e400", "-1e400", "00"] {
            for field in 1..7 {
                let mut fields = fields_of(&snap);
                fields[field].1 = number.into();
                let line = render(&fields);
                assert!(decode_line(&line).is_err(), "{line}");
                agree(&line).unwrap();
            }
            for cells in [
                number.to_string(),
                format!("1,{number}"),
                format!("{number},2"),
            ] {
                let line = with_cells(&cells);
                assert!(decode_line(&line).is_err(), "{line}");
                check_in_place(&line).unwrap();
            }
        }
        for (fabric, decoded) in [
            (r#""\ud83d\ude00""#, Some("😀")),
            (r#""rail-\uD834\uDD1E""#, Some("rail-𝄞")),
            (r#""\ud83d""#, None),
            (r#""\ud83d-""#, None),
            (r#""\ud83d\u0041""#, None),
            (r#""\ude00\ud83d""#, None),
        ] {
            let mut fields = fields_of(&snap);
            fields[0].1 = fabric.into();
            let line = render(&fields);
            agree(&line).unwrap();
            let got = decode_line(&line).ok().map(|s| s.fabric);
            assert_eq!(got.as_deref(), decoded, "{line}");
        }
    }

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
            let mut scanned = CounterSnapshot::default();
            prop_assert_eq!(scan_canonical(line.as_bytes(), &mut scanned).is_some(), plain, "{}", line);

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

    /// One stream of the lane differential: a 2×2 fabric whose port 0 sags
    /// by `sag` % from `onset` on. Fabric ids differ in length and cells in
    /// digit count, so a recycled snapshot rarely fits its next use exactly.
    fn lane_stream(index: usize, iters: u32, onset: u32, sag: u64) -> Vec<CounterSnapshot> {
        let base = 10u64.pow(3 + index as u32 % 4);
        (0..iters)
            .map(|i| CounterSnapshot {
                fabric: format!("lane-{}{index}", "x".repeat(index % 3 * 7)),
                job: index as u32 % 2,
                iter: i,
                n_leaves: 2,
                n_vspines: 2,
                t_ns: u64::from(i),
                bytes: vec![
                    base - if i >= onset { base * sag / 100 } else { 0 },
                    base,
                    base,
                    base + u64::from(i % 2),
                ],
                last: i + 1 == iters,
            })
            .collect()
    }

    /// The streams split over `producers` feeds, each interleaving its
    /// streams by iteration.
    fn lane_wires(streams: &[Vec<CounterSnapshot>], producers: usize) -> Vec<Vec<u8>> {
        let mut wires = vec![Vec::new(); producers];
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (k, st) in streams.iter().enumerate() {
                if let Some(snap) = st.get(i) {
                    let wire = &mut wires[k % producers];
                    wire.extend_from_slice(snapshot_line(snap).as_bytes());
                    wire.push(b'\n');
                }
            }
        }
        wires
    }

    /// Run one `feed_lines` per wire against `handle`, concurrently.
    fn feed_all(wires: &[Vec<u8>], handle: &IngestHandle) -> WireStats {
        std::thread::scope(|s| {
            let feeds: Vec<_> = wires
                .iter()
                .map(|w| s.spawn(move || feed_lines(&w[..], handle).unwrap()))
                .collect();
            let mut total = WireStats::default();
            for f in feeds {
                let st = f.join().unwrap();
                total.lines += st.lines;
                total.malformed += st.malformed;
                total.rejected += st.rejected;
            }
            total
        })
    }

    /// Drain `queue` as the worker does, but hand every snapshot back
    /// scribbled over. Returns how many were popped and the first that was
    /// not the snapshot `streams` sent — reported rather than asserted on
    /// the spot, because a worker that stops popping leaves blocked feeds
    /// hanging.
    fn scribbling_worker<'a>(
        queue: &crate::queue::IngestQueue,
        streams: &'a [Vec<CounterSnapshot>],
    ) -> (u64, Option<(CounterSnapshot, Option<&'a CounterSnapshot>)>) {
        let (mut spent, mut batch) = (Vec::new(), Vec::new());
        let mut seen = 0;
        let mut wrong = None;
        while queue.pop_batch(3, &mut spent, &mut batch).is_some() {
            for item in batch.drain(..) {
                let mut snap = item.snap;
                let sent = streams
                    .iter()
                    .find(|st| (&st[0].fabric, st[0].job) == (&snap.fabric, snap.job))
                    .and_then(|st| st.get(snap.iter as usize));
                if sent != Some(&snap) {
                    wrong.get_or_insert((snap.clone(), sent));
                }
                seen += 1;
                snap.fabric.push_str("\u{1}stale");
                snap.bytes.iter_mut().for_each(|b| *b = u64::MAX);
                snap.bytes.extend([u64::MAX; 3]);
                (snap.job, snap.iter, snap.t_ns, snap.last) = (!0, !0, !0, true);
                spent.push(snap);
            }
        }
        (seen, wrong)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The return lane changes nothing a consumer can see, under every
        /// policy, from a queue of one to one that never fills, with one
        /// feed or four: (1) a stand-in worker that hands every snapshot
        /// back scribbled over still pops exactly what each line encodes,
        /// so no recycled snapshot is reused while queued or decoded into
        /// partially; (2) the real service's per-stream alarms equal the
        /// offline monitor's — or, where `drop` lost a snapshot, stop short
        /// of them at the gap.
        #[test]
        fn return_lane_is_invisible_to_the_consumer(
            shapes in collection::vec((2u32..12, 0u32..12, 0u64..9), 1..7),
        ) {
            use crate::queue::{IngestQueue, QueuePolicy};
            use flowpulse::{detector::Detector, monitor::Monitor};
            use std::sync::Arc;

            let streams: Vec<Vec<CounterSnapshot>> = shapes
                .iter()
                .enumerate()
                .map(|(k, &(iters, onset, sag))| lane_stream(k, iters, onset, sag))
                .collect();
            let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
            let cfg = ServiceConfig::default();
            let offline: Vec<_> = streams
                .iter()
                .map(|st| {
                    let mut store = st[0].new_store();
                    st.iter().for_each(|s| s.apply(&mut store));
                    let mut m =
                        Monitor::new_learned(st[0].job, Detector::new(cfg.threshold), cfg.warmup);
                    m.scan(&store, true);
                    m.alarms
                })
                .collect();

            for policy in [QueuePolicy::Block, QueuePolicy::Drop] {
                for cap in [1, 8, 1024] {
                    for producers in [1, 4] {
                        let what = format!("{} cap={cap} producers={producers}", policy.name());
                        let lossless = policy != QueuePolicy::Drop || cap as u64 >= total;
                        let wires = lane_wires(&streams, producers);

                        let queue = Arc::new(IngestQueue::new(cap, policy));
                        let handle = IngestHandle(Arc::clone(&queue));
                        let (stats, (seen, wrong)) = std::thread::scope(|s| {
                            let worker = s.spawn(|| scribbling_worker(&queue, &streams));
                            let stats = feed_all(&wires, &handle);
                            queue.close();
                            (stats, worker.join().unwrap())
                        });
                        prop_assert_eq!(wrong, None, "popped vs sent, {}", what);
                        prop_assert_eq!((stats.lines, stats.malformed), (total, 0), "{}", what);
                        prop_assert_eq!(seen + stats.rejected, total, "{}", what);
                        prop_assert_eq!(stats.rejected, queue.stats().dropped, "{}", what);
                        prop_assert!(!lossless || seen == total, "{}", what);
                        prop_assert!(queue.spare_buffers() <= cap, "{}", what);

                        let svc = Monitord::spawn(ServiceConfig {
                            queue_capacity: cap,
                            policy,
                            ..cfg.clone()
                        });
                        let stats = feed_all(&wires, &svc.handle());
                        let report = svc.shutdown();
                        prop_assert_eq!(report.snapshots + stats.rejected, total, "{}", what);
                        for (st, offline) in streams.iter().zip(&offline) {
                            let live = report
                                .streams
                                .iter()
                                .find(|s| (&s.fabric, s.job) == (&st[0].fabric, st[0].job));
                            match live {
                                Some(s) if lossless => {
                                    prop_assert!(s.closed, "{}", what);
                                    prop_assert_eq!(&s.alarms, offline, "{}", what);
                                }
                                Some(s) => prop_assert!(offline.starts_with(&s.alarms), "{}", what),
                                None => prop_assert!(!lossless, "{}", what),
                            }
                        }
                    }
                }
            }
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
