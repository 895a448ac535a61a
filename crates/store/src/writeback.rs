//! Writeback started while a file streams: [`WritebackFile`].
//!
//! A bundle save writes tens of megabytes and then syncs them. Left
//! alone, the kernel starts writing those dirty pages to the device only
//! when its flusher wakes or the closing `sync_all` asks, so the sync
//! waits for nearly the whole file. [`WritebackFile`] hands each whole
//! MiB to writeback as the written high-water mark passes it
//! (`sync_file_range(SYNC_FILE_RANGE_WRITE)` on Linux, nothing
//! elsewhere), so the device writes while the encoder still runs and the
//! closing sync waits only for the tail. RocksDB's `bytes_per_sync` is
//! the same pattern.
//!
//! The hint is advisory: it neither waits nor fails, and it makes
//! nothing durable. Durability still comes from the caller's `sync_all`
//! alone, which also writes any byte rewritten after its range was
//! kicked (the pool table's seek-back stamp). Which ranges are kicked is
//! [`Kicks`], a pure function of the writes and seeks, kept apart from
//! the I/O so it can be tested on fabricated sequences.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};

/// Bytes between writeback kicks: each kick covers whole multiples of
/// this, aligned to the start of the file.
pub const WRITEBACK_STEP_BYTES: u64 = 1 << 20;

/// The writeback ranges of a stream of writes and seeks.
///
/// Every range starts where the last one ended (the first at offset 0)
/// and spans whole steps, so the ranges are disjoint and cover
/// `[0, high)` rounded down to a step, where `high` is the written
/// high-water mark. A write that ends at or below the high-water mark
/// (a patch behind it) adds no range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Kicks {
    step: u64,
    /// The offset the next write lands at.
    pos: u64,
    /// The end of the furthest byte written.
    high: u64,
    /// Bytes `[0, kicked)` already handed to writeback: whole steps.
    kicked: u64,
}

impl Kicks {
    /// No bytes written yet, at offset 0.
    pub(crate) fn new(step: u64) -> Self {
        assert!(step > 0, "writeback step must be positive");
        Kicks {
            step,
            pos: 0,
            high: 0,
            kicked: 0,
        }
    }

    /// Records `n` bytes written at the current offset. Returns the range
    /// `(from, len)` to hand to writeback once the high-water mark has
    /// passed another whole step.
    pub(crate) fn wrote(&mut self, n: u64) -> Option<(u64, u64)> {
        self.pos += n;
        self.high = self.high.max(self.pos);
        let len = (self.high - self.kicked) / self.step * self.step;
        let from = self.kicked;
        self.kicked += len;
        (len > 0).then_some((from, len))
    }

    /// Records a seek to absolute offset `pos`.
    pub(crate) fn seeked(&mut self, pos: u64) {
        self.pos = pos;
    }
}

/// A [`File`] written front to back (with seeks back allowed) that hands
/// each whole [`WRITEBACK_STEP_BYTES`] to writeback as the write
/// high-water mark passes it. Put it under the `BufWriter`; recover the
/// file with [`WritebackFile::into_file`] to sync it.
///
/// The file must be at offset 0 when wrapped (a fresh
/// [`File::create`]); otherwise the hinted ranges miss the written
/// bytes, which costs speed, never correctness.
#[derive(Debug)]
pub struct WritebackFile {
    file: File,
    kicks: Kicks,
}

impl WritebackFile {
    /// Wraps a file positioned at its start.
    pub fn new(file: File) -> Self {
        WritebackFile {
            file,
            kicks: Kicks::new(WRITEBACK_STEP_BYTES),
        }
    }

    /// The file, for the closing `sync_all`.
    pub fn into_file(self) -> File {
        self.file
    }
}

impl Write for WritebackFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        if let Some((from, len)) = self.kicks.wrote(n as u64) {
            start_writeback(&self.file, from, len);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Seek for WritebackFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let at = self.file.seek(pos)?;
        self.kicks.seeked(at);
        Ok(at)
    }
}

/// Starts writeback of `len` bytes of `file` from `from` without waiting
/// for it, where the platform offers that (Linux); a no-op elsewhere.
fn start_writeback(file: &File, from: u64, len: u64) {
    #[cfg(target_os = "linux")]
    crate::mapped::sys::start_writeback(file, from, len);
    #[cfg(not(target_os = "linux"))]
    let _ = (file, from, len);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of a fabricated stream.
    #[derive(Clone, Copy)]
    enum Op {
        Write(u64),
        Seek(u64),
    }

    /// Replays `ops`, returning the ranges kicked and the high-water mark.
    fn replay(step: u64, ops: &[Op]) -> (Vec<(u64, u64)>, u64) {
        let mut kicks = Kicks::new(step);
        let mut ranges = Vec::new();
        for &op in ops {
            match op {
                Op::Write(n) => ranges.extend(kicks.wrote(n)),
                Op::Seek(pos) => kicks.seeked(pos),
            }
        }
        (ranges, kicks.high)
    }

    /// Every byte below the high-water mark's last whole step lies in
    /// exactly one range, and no byte above it in any: the ranges tile
    /// `[0, ⌊high/step⌋·step)` in order, each a whole number of steps.
    fn assert_tiles(step: u64, ranges: &[(u64, u64)], high: u64) {
        let mut next = 0;
        for &(from, len) in ranges {
            assert_eq!(from, next, "ranges {ranges:?} leave a gap or overlap");
            assert!(len > 0 && len % step == 0, "range {from}+{len}");
            next = from + len;
        }
        assert_eq!(next, high / step * step, "ranges {ranges:?}, high {high}");
    }

    #[test]
    fn small_writes_kick_each_step_once() {
        let step = 64;
        let ops = vec![Op::Write(7); 100];
        let (ranges, high) = replay(step, &ops);
        assert_eq!(high, 700);
        assert_tiles(step, &ranges, high);
        assert_eq!(ranges.len(), 10, "one range per step passed");
    }

    #[test]
    fn a_write_past_several_steps_kicks_them_in_one_range() {
        let (ranges, high) = replay(64, &[Op::Write(10), Op::Write(300), Op::Write(30)]);
        assert_eq!(ranges, vec![(0, 256), (256, 64)]);
        assert_tiles(64, &ranges, high);
    }

    #[test]
    fn a_patch_behind_the_high_water_mark_adds_no_range() {
        // The pool table's stamp: a prelude and table written as zeros,
        // entries streamed after them, then a seek back over the zeros,
        // the stamp, and a seek forward to the end.
        let step = 1 << 20;
        let head = 12 + 16 + 36 + 8 + 2 * 32;
        let entries = 5 * step + 12_345;
        let mut ops = vec![Op::Write(head)];
        ops.extend(std::iter::repeat_n(
            Op::Write(65_536),
            (entries / 65_536) as usize,
        ));
        ops.push(Op::Write(entries % 65_536));
        let (before, high) = replay(step, &ops);
        ops.extend([Op::Seek(12), Op::Write(head - 12), Op::Seek(head + entries)]);
        let (after, same_high) = replay(step, &ops);
        assert_eq!(after, before, "the stamp adds no range");
        assert_eq!(same_high, high);
        assert_tiles(step, &after, high);
        // Writing on past the end picks the kicks up where they stopped.
        ops.push(Op::Write(step));
        let (more, high) = replay(step, &ops);
        assert_eq!(&more[..before.len()], &before[..]);
        assert_tiles(step, &more, high);
    }

    #[test]
    fn a_rewrite_that_runs_past_the_high_water_mark_kicks_only_new_steps() {
        let (ranges, high) = replay(
            100,
            &[Op::Write(250), Op::Seek(150), Op::Write(160), Op::Write(95)],
        );
        assert_eq!(high, 405);
        assert_eq!(ranges, vec![(0, 200), (200, 100), (300, 100)]);
        assert_tiles(100, &ranges, high);
    }

    #[test]
    fn fabricated_streams_tile_the_written_steps() {
        // A deterministic walk of writes and seeks of every size around
        // the step, against a byte-coverage map.
        let step = 32;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..200 {
            let mut ops = Vec::new();
            let (mut pos, mut high) = (0u64, 0u64);
            for _ in 0..40 {
                if rand(5) == 0 && high > 0 {
                    pos = rand(high);
                    ops.push(Op::Seek(pos));
                } else {
                    let n = rand(3 * step);
                    ops.push(Op::Write(n));
                    pos += n;
                    high = high.max(pos);
                }
            }
            let (ranges, replayed_high) = replay(step, &ops);
            assert_eq!(replayed_high, high);
            assert_tiles(step, &ranges, high);
        }
    }

    #[test]
    fn the_file_wrapper_writes_seeks_and_reads_back_what_it_was_given() {
        let dir = std::env::temp_dir().join(format!("anns-writeback-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file");
        let mut out = WritebackFile::new(File::create(&path).unwrap());
        let body: Vec<u8> = (0..3 * WRITEBACK_STEP_BYTES + 17)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        out.write_all(&body).unwrap();
        assert_eq!(out.kicks.kicked, 3 * WRITEBACK_STEP_BYTES);
        assert_eq!(out.seek(SeekFrom::Start(5)).unwrap(), 5);
        out.write_all(b"stamp").unwrap();
        out.seek(SeekFrom::End(0)).unwrap();
        out.write_all(b"tail").unwrap();
        out.into_file().sync_all().unwrap();
        let mut want = body;
        want[5..10].copy_from_slice(b"stamp");
        want.extend_from_slice(b"tail");
        assert_eq!(std::fs::read(&path).unwrap(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
