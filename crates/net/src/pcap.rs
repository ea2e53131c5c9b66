//! Classic libpcap file format: the one encoder and the one decoder of
//! capture bytes in the workspace.
//!
//! The simulator persists generated gateway captures in the standard
//! `.pcap` format (magic `0xa1b2c3d4`, microsecond resolution, LINKTYPE_ETHERNET)
//! so traces can be inspected with Wireshark/tcpdump, and the pipeline
//! ingests captures held in memory.
//!
//! Writing: [`global_header`] and [`record_header`] encode the two headers,
//! and [`PcapWriter`] streams a capture through them. Reading is one
//! recovering scan over bytes in memory: it skips implausible record
//! headers, resynchronizes and swallows a truncated tail, accounting for
//! everything it ignored in an [`IngestReport`]. [`PcapScan`] runs it over
//! the caller's buffer and yields frames borrowing that buffer;
//! [`PcapReader::new_recovering`] reads its whole stream when opened and
//! drives the same scan.

use crate::report::{IngestCategory, IngestReport};
use crate::{NetError, Result};
use std::io::{Read, Write};

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_US_SWAPPED: u32 = 0xd4c3_b2a1;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Smallest frame a plausible record can carry (an Ethernet header).
const MIN_FRAME_LEN: u32 = 14;
/// Largest capture length a plausible record header may claim (classic
/// snaplen ceiling).
const MAX_FRAME_LEN: u32 = 65_535;
/// Largest original (on-the-wire) length a plausible header may claim.
const MAX_ORIG_LEN: u32 = 1 << 18;
/// A plausible record timestamp may precede the last accepted one by at
/// most this many seconds...
const MAX_SEC_BEHIND: u32 = 7 * 86_400;
/// ...or follow it by at most this many seconds.
const MAX_SEC_AHEAD: u32 = 30 * 86_400;

/// The `u32` at `b[at..at + 4]` in the file's byte order.
fn u32_at(b: &[u8], at: usize, swapped: bool) -> u32 {
    let arr = [b[at], b[at + 1], b[at + 2], b[at + 3]];
    if swapped {
        u32::from_be_bytes(arr)
    } else {
        u32::from_le_bytes(arr)
    }
}

/// Read and validate the 24-byte global header. Both byte orders are
/// accepted; returns whether the file is byte-swapped, and its link type.
fn read_global_header<R: Read>(inner: &mut R) -> Result<(bool, u32)> {
    let mut hdr = [0u8; 24];
    inner.read_exact(&mut hdr)?;
    let swapped = match u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) {
        MAGIC_US => false,
        MAGIC_US_SWAPPED => true,
        _ => {
            return Err(NetError::Invalid {
                what: "pcap",
                reason: "bad magic",
            })
        }
    };
    Ok((swapped, u32_at(&hdr, 20, swapped)))
}

/// A decoded 16-byte record header (recovery path).
#[derive(Debug, Clone, Copy)]
struct RecHeader {
    sec: u32,
    usec: u32,
    incl: u32,
    orig: u32,
}

impl RecHeader {
    fn decode(b: &[u8], swapped: bool) -> Self {
        RecHeader {
            sec: u32_at(b, 0, swapped),
            usec: u32_at(b, 4, swapped),
            incl: u32_at(b, 8, swapped),
            orig: u32_at(b, 12, swapped),
        }
    }

    /// Field-level plausibility, independent of context.
    fn fields_plausible(&self) -> bool {
        self.usec < 1_000_000
            && (MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&self.incl)
            && self.orig >= self.incl
            && self.orig <= MAX_ORIG_LEN
    }

    /// Timestamp as the pipeline's f64 seconds.
    fn ts(&self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// Whether `sec` is within the accepted drift window of `anchor`.
fn sec_in_window(sec: u32, anchor: u32) -> bool {
    sec >= anchor.saturating_sub(MAX_SEC_BEHIND) && sec <= anchor.saturating_add(MAX_SEC_AHEAD)
}

/// A captured packet record: timestamp plus raw link-layer bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct PcapRecord {
    /// Capture timestamp in seconds since the epoch of the capture.
    pub ts: f64,
    /// Raw frame bytes (from the Ethernet header on).
    pub data: Vec<u8>,
}

/// The 24-byte global header of every capture this crate writes:
/// little-endian, version 2.4, microsecond timestamps, snaplen 65535,
/// Ethernet link type.
pub fn global_header() -> [u8; 24] {
    let mut h = [0u8; 24]; // thiszone and sigfigs (bytes 8..16) stay zero
    h[0..4].copy_from_slice(&MAGIC_US.to_le_bytes());
    h[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
    h[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
    h[16..20].copy_from_slice(&65535u32.to_le_bytes()); // snaplen
    h[20..24].copy_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
    h
}

/// `ts` as a record header's whole seconds and microseconds, rounded to
/// the nearest microsecond; a rounding up to a whole second carries into
/// the seconds. The seconds stay a float, so the caller decides what to do
/// with a value outside the header's `u32` field.
fn split_time(ts: f64) -> (f64, u32) {
    let secs = ts.floor();
    let usecs = ((ts - secs) * 1e6).round() as u32;
    if usecs >= 1_000_000 {
        (secs + 1.0, 0)
    } else {
        (secs, usecs)
    }
}

/// The 16-byte little-endian header of a record stamped `ts` that keeps
/// `incl` bytes of an `orig`-byte frame.
///
/// Seconds outside the header's `u32` field saturate, as a float-to-integer
/// cast does (a NaN stamp writes 0). [`PcapWriter::write_record`] refuses
/// such stamps instead.
pub fn record_header(ts: f64, incl: u32, orig: u32) -> [u8; 16] {
    let (secs, usecs) = split_time(ts);
    let mut h = [0u8; 16];
    h[0..4].copy_from_slice(&(secs as u32).to_le_bytes());
    h[4..8].copy_from_slice(&usecs.to_le_bytes());
    h[8..12].copy_from_slice(&incl.to_le_bytes());
    h[12..16].copy_from_slice(&orig.to_le_bytes());
    h
}

/// Writes a pcap stream: global header then one record per packet.
pub struct PcapWriter<W: Write> {
    inner: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the [`global_header`].
    pub fn new(mut inner: W) -> Result<Self> {
        inner.write_all(&global_header())?;
        Ok(Self { inner })
    }

    /// Append one packet record. A timestamp whose seconds do not fit the
    /// header's `u32` field is refused.
    pub fn write_record(&mut self, rec: &PcapRecord) -> Result<()> {
        let (secs, _) = split_time(rec.ts);
        if secs < 0.0 || secs > u32::MAX as f64 {
            return Err(NetError::Invalid {
                what: "pcap record",
                reason: "timestamp out of range",
            });
        }
        let len = rec.data.len() as u32;
        self.inner.write_all(&record_header(rec.ts, len, len))?;
        self.inner.write_all(&rec.data)?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// A record view borrowing its frame bytes — the zero-copy counterpart of
/// [`PcapRecord`]. From a [`PcapScan`] it borrows the scanned input and
/// lives as long as that input; from a [`PcapReader`] it borrows the
/// reader and is valid until the next read call on it.
#[derive(Debug, PartialEq)]
pub struct PcapRecordView<'a> {
    /// Capture timestamp in seconds since the epoch of the capture.
    pub ts: f64,
    /// Raw frame bytes, borrowed from the input or the reader.
    pub data: &'a [u8],
}

/// The recovery scan over the record bytes of a capture (everything after
/// the global header). Every branch of [`Self::next`] strictly advances
/// `pos` — a yield by at least a 16-byte header, a resync by at least one
/// byte — so the scan never loops and yields at most `len/16 + 1` records
/// for `len` bytes.
#[derive(Debug, Default)]
struct Recovery {
    swapped: bool,
    /// Offset of the next unread byte.
    pos: usize,
    /// Seconds field of the newest accepted record (plausibility anchor).
    last_sec: Option<u32>,
    /// Records yielded so far (sample indices in the report).
    yielded: u64,
    /// Accounting of everything the scan ignored.
    report: IngestReport,
}

impl Recovery {
    fn new(swapped: bool) -> Self {
        Self {
            swapped,
            ..Self::default()
        }
    }

    /// The record header at `at`, if 16 bytes remain there.
    fn header(&self, bytes: &[u8], at: usize) -> Option<RecHeader> {
        bytes
            .get(at..at + 16)
            .map(|b| RecHeader::decode(b, self.swapped))
    }

    /// Full plausibility: fields plus the timestamp window anchored on the
    /// newest accepted record (no window before the first acceptance).
    fn plausible(&self, h: &RecHeader) -> bool {
        h.fields_plausible() && self.last_sec.is_none_or(|last| sec_in_window(h.sec, last))
    }

    /// One-level chain validation for a resync candidate at offset `p`:
    /// the header *after* the candidate record must itself look plausible
    /// (anchored on the candidate's timestamp), or the candidate must end
    /// at — or within a sub-header distance of — the end of the stream.
    fn chain_ok(&self, bytes: &[u8], p: usize, h: &RecHeader) -> bool {
        let rec_end = p + 16 + h.incl as usize;
        if bytes.len() < rec_end {
            // The candidate record itself extends past the end.
            return false;
        }
        match self.header(bytes, rec_end) {
            Some(next) => next.fields_plausible() && sec_in_window(next.sec, h.sec),
            None => true,
        }
    }

    /// Advance to the next recoverable record of `bytes`, or `None` at the
    /// end. Malformed content is skipped and accounted, never an error.
    fn next<'a>(&mut self, bytes: &'a [u8]) -> Option<PcapRecordView<'a>> {
        loop {
            let Some(h) = self.header(bytes, self.pos) else {
                if self.pos < bytes.len() {
                    let ts = self.last_sec.map_or(0.0, |s| s as f64);
                    self.report.note(
                        IngestCategory::TruncatedTail,
                        self.yielded,
                        ts,
                        "stream ended inside a record header",
                    );
                    self.pos = bytes.len();
                }
                return None;
            };
            if self.plausible(&h) {
                let body = self.pos + 16;
                let Some(data) = bytes.get(body..body + h.incl as usize) else {
                    self.report.note(
                        IngestCategory::TruncatedTail,
                        self.yielded,
                        h.ts(),
                        "stream ended inside a record body",
                    );
                    self.pos = bytes.len();
                    return None;
                };
                self.pos = body + data.len();
                self.last_sec = Some(self.last_sec.map_or(h.sec, |l| l.max(h.sec)));
                self.yielded += 1;
                return Some(PcapRecordView { ts: h.ts(), data });
            }
            // Implausible header: counted once, then a byte-by-byte forward
            // scan for the next plausible, chain-validated record header.
            self.report.note(
                IngestCategory::BadRecordHeader,
                self.yielded,
                h.ts(),
                "implausible record header",
            );
            let mut p = self.pos + 1;
            loop {
                let Some(cand) = self.header(bytes, p) else {
                    // No room left for a header: the remainder of the
                    // stream is unrecoverable.
                    self.report.resync_skipped_bytes += (bytes.len() - self.pos) as u64;
                    self.pos = bytes.len();
                    return None;
                };
                if self.plausible(&cand) && self.chain_ok(bytes, p, &cand) {
                    self.report.resync_skipped_bytes += (p - self.pos) as u64;
                    self.report.note(
                        IngestCategory::Resync,
                        self.yielded,
                        cand.ts(),
                        "resynchronized on next plausible record header",
                    );
                    self.pos = p;
                    break;
                }
                p += 1;
            }
        }
    }
}

/// Reading of a capture held in memory: an iterator over
/// [`PcapRecordView`]s that borrow the caller's bytes, with no copy and no
/// per-record allocation.
///
/// A record is accepted when its header is plausible: microseconds below
/// one second, a captured length of 14 (an Ethernet header) to 65,535
/// bytes, an original length of at least the captured one and at most
/// 256 KiB, and seconds no more than 7 days behind or 30 days ahead of the
/// newest accepted record. An implausible record header is skipped by a
/// chain-validated forward scan, a truncated tail is swallowed, and
/// everything ignored is accounted in [`Self::report`]. Malformed records
/// never end the iteration with an error.
pub struct PcapScan<'a> {
    /// The capture after its global header.
    records: &'a [u8],
    /// Link type declared by the file (normally [`LINKTYPE_ETHERNET`]).
    pub linktype: u32,
    state: Recovery,
}

impl<'a> PcapScan<'a> {
    /// Validate the global header of `bytes` and start a scan over the
    /// records after it. The header must be valid (either byte order):
    /// without a magic number there is no byte order to recover with.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let mut records = bytes;
        let (swapped, linktype) = read_global_header(&mut records)?;
        Ok(Self {
            records,
            linktype,
            state: Recovery::new(swapped),
        })
    }

    /// Accounting of everything the scan has ignored so far; all-zero on
    /// clean input.
    pub fn report(&self) -> &IngestReport {
        &self.state.report
    }

    /// Take ownership of the report, leaving an empty one behind.
    pub fn take_report(&mut self) -> IngestReport {
        std::mem::take(&mut self.state.report)
    }
}

impl<'a> Iterator for PcapScan<'a> {
    type Item = PcapRecordView<'a>;

    fn next(&mut self) -> Option<PcapRecordView<'a>> {
        self.state.next(self.records)
    }
}

/// Reads a whole pcap stream into memory when opened, then iterates over
/// its records with the same scan as [`PcapScan`].
pub struct PcapReader {
    /// Link type declared by the file (normally [`LINKTYPE_ETHERNET`]).
    pub linktype: u32,
    /// Every record byte of the stream.
    buf: Vec<u8>,
    /// The recovery scan over `buf`.
    scan: Recovery,
}

impl PcapReader {
    /// Open a pcap stream: malformed records are skipped and counted
    /// instead of aborting the read. The global header must be valid
    /// (either byte order) — without a magic number there is no byte order
    /// to recover with.
    ///
    /// The rest of the stream is read into memory here, so an I/O error
    /// from `inner` surfaces from this call; reads never fail afterwards.
    /// Callers that already hold the capture in memory should use
    /// [`PcapScan`], which scans their bytes without copying them.
    pub fn new_recovering<R: Read>(mut inner: R) -> Result<Self> {
        let (swapped, linktype) = read_global_header(&mut inner)?;
        let mut buf = Vec::new();
        inner.read_to_end(&mut buf)?;
        Ok(Self {
            linktype,
            buf,
            scan: Recovery::new(swapped),
        })
    }

    /// Take the accounting of everything the scan has ignored so far,
    /// leaving an empty report behind; all-zero on clean input.
    pub fn take_report(&mut self) -> IngestReport {
        std::mem::take(&mut self.scan.report)
    }

    /// The next recoverable record as a view borrowing the reader, or
    /// `None` at the end of the stream. Malformed stretches of the stream
    /// are skipped and accounted; the result is never an error, since the
    /// stream was read when the reader was opened.
    pub fn next_record_borrowed(&mut self) -> Result<Option<PcapRecordView<'_>>> {
        Ok(self.scan.next(&self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Every record `bytes` yields through a [`PcapScan`], and the report.
    fn scan_all(bytes: &[u8]) -> (Vec<PcapRecord>, IngestReport) {
        let mut scan = PcapScan::new(bytes).unwrap();
        let records = scan
            .by_ref()
            .map(|v| PcapRecord {
                ts: v.ts,
                data: v.data.to_vec(),
            })
            .collect();
        (records, scan.take_report())
    }

    #[test]
    fn roundtrip_multiple_records() {
        // 14 bytes, an Ethernet header alone, is the shortest frame a
        // plausible record carries.
        let recs = vec![
            PcapRecord {
                ts: 1.5,
                data: vec![3; 20],
            },
            PcapRecord {
                ts: 2.000001,
                data: vec![0; 14],
            },
            PcapRecord {
                ts: 1000.999999,
                data: vec![0xff; 64],
            },
        ];
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let buf = w.finish().unwrap();
        assert_eq!(PcapScan::new(&buf).unwrap().linktype, LINKTYPE_ETHERNET);
        let (out, report) = scan_all(&buf);
        assert_eq!(out.len(), 3);
        for (a, b) in out.iter().zip(recs.iter()) {
            assert!((a.ts - b.ts).abs() < 2e-6, "{} vs {}", a.ts, b.ts);
            assert_eq!(a.data, b.data);
        }
        assert!(report.is_clean());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(
            PcapReader::new_recovering(&buf[..]),
            Err(NetError::Invalid {
                reason: "bad magic",
                ..
            })
        ));
    }

    #[test]
    fn truncated_header_is_io_error() {
        let buf = [0u8; 10];
        assert!(matches!(
            PcapReader::new_recovering(&buf[..]),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn negative_timestamp_rejected() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for ts in [-1.0, u32::MAX as f64 + 1.0] {
            let res = w.write_record(&PcapRecord {
                ts,
                data: vec![0; 14],
            });
            assert!(res.is_err(), "{ts}");
        }
    }

    #[test]
    fn record_header_saturates_what_the_writer_refuses() {
        let secs =
            |ts: f64| u32::from_le_bytes(record_header(ts, 14, 14)[0..4].try_into().unwrap());
        assert_eq!(secs(-1.0), 0);
        assert_eq!(secs(f64::NAN), 0);
        assert_eq!(secs(u32::MAX as f64 + 1.0), u32::MAX);
        assert_eq!(secs(7.25), 7);
    }

    #[test]
    fn borrowed_reader_matches_owned() {
        let (recs, buf) = sample_capture(20);
        let mut rd = PcapReader::new_recovering(Cursor::new(buf)).unwrap();
        assert_eq!(rd.linktype, LINKTYPE_ETHERNET);
        for rec in &recs {
            let view = rd.next_record_borrowed().unwrap().unwrap();
            assert_eq!(view.ts, rec.ts);
            assert_eq!(view.data, &rec.data[..]);
        }
        assert!(rd.next_record_borrowed().unwrap().is_none());
        assert!(
            rd.take_report().is_clean(),
            "clean input dirtied the report"
        );
    }

    fn sample_capture(n: u8) -> (Vec<PcapRecord>, Vec<u8>) {
        let recs: Vec<PcapRecord> = (0..n)
            .map(|i| PcapRecord {
                ts: 100.0 + i as f64 * 0.25,
                data: vec![i; 40 + i as usize],
            })
            .collect();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        (recs, w.finish().unwrap())
    }

    #[test]
    fn recovery_resyncs_past_mangled_length_field() {
        let (recs, mut buf) = sample_capture(8);
        // Mangle the incl_len field of record 2 to an implausible value.
        // Records 0 and 1 occupy (16+40) + (16+41) bytes after the header.
        let rec2_hdr = 24 + (16 + 40) + (16 + 41);
        buf[rec2_hdr + 8..rec2_hdr + 12].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        let (out, rep) = scan_all(&buf);
        // Record 2 is lost; everything else survives.
        assert_eq!(out.len(), recs.len() - 1);
        assert_eq!(out[2].data, recs[3].data);
        assert_eq!(rep.bad_record_headers, 1);
        assert_eq!(rep.resyncs, 1);
        // The scan skipped the mangled header plus record 2's frame bytes.
        assert_eq!(rep.resync_skipped_bytes, 16 + 42);
        assert_eq!(rep.dropped_records(), 1);
    }

    #[test]
    fn recovery_swallows_truncated_tail() {
        let (recs, mut buf) = sample_capture(6);
        buf.truncate(buf.len() - 20); // cut into the last record's body
        let (out, rep) = scan_all(&buf);
        assert_eq!(out.len(), recs.len() - 1);
        assert_eq!(rep.truncated_tail, 1);
        assert_eq!(rep.dropped_records(), 1);
    }

    #[test]
    fn recovery_handles_garbage_only_stream() {
        // Valid global header followed by non-record noise: nothing yields,
        // nothing panics, nothing loops.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord {
            ts: 5.0,
            data: vec![0xaa; 20],
        })
        .unwrap();
        let mut buf = w.finish().unwrap();
        // Overwrite the record header with 0xff noise so it is implausible.
        for b in &mut buf[24..40] {
            *b = 0xff;
        }
        let (out, rep) = scan_all(&buf);
        assert!(out.is_empty());
        assert_eq!(rep.bad_record_headers, 1);
        assert_eq!(rep.resyncs, 0);
    }

    #[test]
    fn recovery_still_rejects_bad_magic() {
        let buf = vec![0u8; 24];
        assert!(matches!(
            PcapScan::new(&buf),
            Err(NetError::Invalid {
                reason: "bad magic",
                ..
            })
        ));
        assert!(matches!(PcapScan::new(&buf[..10]), Err(NetError::Io(_))));
    }

    #[test]
    fn scan_yields_frames_borrowed_from_the_input() {
        let (recs, buf) = sample_capture(9);
        let mut scan = PcapScan::new(&buf).unwrap();
        assert_eq!(scan.linktype, LINKTYPE_ETHERNET);
        let input = buf.as_ptr_range();
        let mut n = 0;
        for (view, rec) in scan.by_ref().zip(&recs) {
            assert_eq!(view.ts, rec.ts);
            assert_eq!(view.data, &rec.data[..]);
            assert!(input.contains(&view.data.as_ptr()), "frame was copied");
            n += 1;
        }
        assert_eq!(n, recs.len());
        assert!(scan.next().is_none());
        assert!(scan.report().is_clean());
    }

    /// A stream that fails every read.
    struct Unreadable;

    impl Read for Unreadable {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("device gone"))
        }
    }

    #[test]
    fn recovering_open_surfaces_io_errors() {
        // The header is readable; the error comes from the records after
        // it, which a recovering reader reads when it is opened.
        let (_, buf) = sample_capture(3);
        let stream = Cursor::new(buf[..30].to_vec()).chain(Unreadable);
        assert!(matches!(
            PcapReader::new_recovering(stream),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn microsecond_rounding_never_overflows() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord {
            ts: 41.9999996,
            data: vec![0; 14],
        })
        .unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(&buf[24..32], &record_header(42.0, 0, 0)[..8]);
        let (out, _) = scan_all(&buf);
        assert_eq!(out[0].ts, 42.0);
    }
}
