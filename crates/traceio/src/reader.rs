//! Streaming `.altr` trace reader and the file-backed [`TraceSource`]
//! adapter that lets recorded traces drop into `System::run_sources`, the
//! `Suite` registry and every existing experiment unchanged.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use alecto_types::{AccessKind, Addr, MemoryRecord, Pc, TraceSource};

use crate::format::{self, read_block_frame, TraceHeader};
use crate::varint;

/// Decodes the record stream following an already-consumed header.
///
/// Yields `io::Result<MemoryRecord>`; after the first error the iterator
/// fuses to `None`. The decoder carries the running checksum so a full pass
/// can verify the header's stored value (see [`RecordDecoder::verify`]).
#[derive(Debug)]
pub struct RecordDecoder<R: Read> {
    reader: R,
    /// Records the header promises; decoding stops after this many.
    remaining: u64,
    /// Records left in the current block.
    block_remaining: u64,
    checksum: u64,
    /// When set, the final [`Iterator::next`] call additionally runs the
    /// trailing-bytes and checksum checks against this expected value and
    /// refuses to yield the last record of a corrupt stream.
    expected_checksum: Option<u64>,
    last_pc: u64,
    last_addr: u64,
    failed: bool,
}

impl<R: Read> RecordDecoder<R> {
    /// Starts decoding `record_count` records from `reader`, positioned at
    /// the first block frame.
    #[must_use]
    pub fn new(reader: R, record_count: u64) -> Self {
        Self {
            reader,
            remaining: record_count,
            block_remaining: 0,
            checksum: format::FNV_OFFSET,
            expected_checksum: None,
            last_pc: 0,
            last_addr: 0,
            failed: false,
        }
    }

    /// Arms end-of-stream verification: when the iterator reaches the last
    /// record it also checks the running checksum against `expected` (and
    /// that nothing follows the final block), erroring instead of yielding
    /// that record on a mismatch. This is how every replay a
    /// [`TraceReader`]-minted source performs detects corruption without a
    /// separate validation pass.
    #[must_use]
    pub fn verifying(mut self, expected: u64) -> Self {
        self.expected_checksum = Some(expected);
        self
    }

    fn bad(&mut self, msg: String) -> io::Error {
        self.failed = true;
        io::Error::new(io::ErrorKind::InvalidData, msg)
    }

    /// The end-of-stream integrity checks shared by [`RecordDecoder::verify`]
    /// and the armed iterator path: no trailing bytes, checksum matches.
    fn finish_checks(&mut self, expected: u64) -> io::Result<()> {
        let mut tail = [0u8; 1];
        if self.reader.read(&mut tail)? != 0 {
            return Err(self.bad("trailing bytes after the last block".to_string()));
        }
        if self.checksum != expected {
            let msg = format!(
                "checksum mismatch: file body hashes to {:#018x}, header says {expected:#018x} \
                 (corrupt or hand-edited trace)",
                self.checksum
            );
            return Err(self.bad(msg));
        }
        Ok(())
    }

    fn next_record(&mut self) -> io::Result<MemoryRecord> {
        if self.block_remaining == 0 {
            // Checksum the frame exactly as the writer emitted it by
            // re-encoding the two varints (canonical LEB128 is unique).
            let Some((records, payload_len)) = read_block_frame(&mut self.reader)? else {
                return Err(self.bad(format!(
                    "trace ends {} record(s) early (truncated file?)",
                    self.remaining
                )));
            };
            if records == 0 {
                return Err(self.bad("empty block".to_string()));
            }
            if records > self.remaining {
                let msg = format!(
                    "block of {records} record(s) overruns the header count by {}",
                    records - self.remaining
                );
                return Err(self.bad(msg));
            }
            let mut frame = Vec::with_capacity(2 * varint::MAX_VARINT_BYTES);
            varint::encode_u64(records, &mut frame);
            varint::encode_u64(payload_len, &mut frame);
            self.checksum = format::fnv1a(self.checksum, &frame);
            self.block_remaining = records;
            self.last_pc = 0;
            self.last_addr = 0;
        }
        let mut tracked = ChecksumReader { inner: &mut self.reader, state: self.checksum };
        let pc_delta = varint::decode_i64(&mut tracked)?;
        let addr_delta = varint::decode_i64(&mut tracked)?;
        let flags = varint::decode_u64(&mut tracked)?;
        self.checksum = tracked.state;
        let gap = flags >> 2;
        let Ok(gap_instructions) = u32::try_from(gap) else {
            return Err(self.bad(format!("record gap {gap} exceeds u32")));
        };
        self.last_pc = self.last_pc.wrapping_add(pc_delta as u64);
        self.last_addr = self.last_addr.wrapping_add(addr_delta as u64);
        self.block_remaining -= 1;
        self.remaining -= 1;
        if self.remaining == 0 {
            if let Some(expected) = self.expected_checksum {
                self.finish_checks(expected)?;
            }
        }
        Ok(MemoryRecord {
            pc: Pc::new(self.last_pc),
            addr: Addr::new(self.last_addr),
            kind: if flags & 0b10 == 0 { AccessKind::Load } else { AccessKind::Store },
            gap_instructions,
            dependent: flags & 0b01 != 0,
        })
    }

    /// After full decoding, checks the running checksum against the header's
    /// stored value and that no trailing garbage follows the last block.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a checksum mismatch or
    /// trailing bytes, and an error if records remain undecoded.
    pub fn verify(mut self, header: &TraceHeader) -> io::Result<()> {
        if self.remaining != 0 {
            let msg = format!("verify called with {} record(s) undecoded", self.remaining);
            return Err(self.bad(msg));
        }
        if self.failed {
            // The armed iterator path already reported (and consumed) the
            // failure; don't re-read past it.
            return Err(io::Error::new(io::ErrorKind::InvalidData, "decode already failed"));
        }
        if self.expected_checksum.is_some() {
            // An armed decoder that delivered every record already ran the
            // end-of-stream checks.
            return Ok(());
        }
        self.finish_checks(header.checksum)
    }
}

/// Folds every byte it passes through into the FNV-1a64 running state.
struct ChecksumReader<'a, R: Read> {
    inner: &'a mut R,
    state: u64,
}

impl<R: Read> Read for ChecksumReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.state = format::fnv1a(self.state, &buf[..n]);
        Ok(n)
    }
}

impl<R: Read> Iterator for RecordDecoder<R> {
    type Item = io::Result<MemoryRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        match self.next_record() {
            Ok(record) => Some(Ok(record)),
            Err(err) => {
                self.failed = true;
                Some(Err(err))
            }
        }
    }
}

/// Decodes an entire in-memory `.altr` document (header + blocks),
/// verifying the checksum. The eager counterpart of [`TraceReader`], used by
/// tests and the round-trip proptests.
///
/// # Errors
///
/// Returns any header, record or checksum error.
pub fn decode_document(bytes: &[u8]) -> io::Result<(TraceHeader, Vec<MemoryRecord>)> {
    let mut cursor = io::Cursor::new(bytes);
    let header = TraceHeader::decode(&mut cursor)?;
    let mut decoder = RecordDecoder::new(cursor, header.record_count);
    let records: Vec<MemoryRecord> = (&mut decoder).collect::<io::Result<_>>()?;
    decoder.verify(&header)?;
    Ok((header, records))
}

/// Aggregate per-field statistics of one full decode pass, reported by
/// `alecto-harness trace info`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Demand loads.
    pub loads: u64,
    /// Demand stores.
    pub stores: u64,
    /// Records flagged data-dependent on their predecessor (pointer chases).
    pub dependent: u64,
    /// Total instructions (memory accesses + gaps).
    pub instructions: u64,
    /// Largest single-record instruction gap.
    pub max_gap: u32,
    /// Distinct 4 KiB pages touched.
    pub touched_pages: u64,
    /// Lowest byte address accessed (0 for an empty trace).
    pub min_addr: u64,
    /// Highest byte address accessed (0 for an empty trace).
    pub max_addr: u64,
    /// Distinct PCs in the trace.
    pub distinct_pcs: u64,
}

impl TraceStats {
    /// Folds `record` into the running stats (page/PC sets folded by the
    /// caller, which owns the scratch sets).
    fn fold(&mut self, record: &MemoryRecord) {
        if record.kind.is_load() {
            self.loads += 1;
        } else {
            self.stores += 1;
        }
        self.dependent += u64::from(record.dependent);
        self.instructions += record.instructions();
        self.max_gap = self.max_gap.max(record.gap_instructions);
        self.min_addr = self.min_addr.min(record.addr.raw());
        self.max_addr = self.max_addr.max(record.addr.raw());
    }
}

/// A validated, file-backed `.altr` trace: the header plus the ability to
/// mint fresh record streams and a [`TraceSource`] view.
#[derive(Debug, Clone)]
pub struct TraceReader {
    path: PathBuf,
    header: TraceHeader,
}

impl TraceReader {
    /// Opens `path` and decodes its header. The body is *not* scanned here —
    /// use [`TraceReader::stats`] to verify the checksum eagerly. Sources
    /// minted by [`TraceReader::source`] verify it on every *full* replay
    /// (a replay capped below the recorded count never reaches the stream
    /// tail, so it checks structure but not the final checksum).
    ///
    /// # Errors
    ///
    /// Returns file-open and header-format errors, each naming the path.
    pub fn open(path: &Path) -> io::Result<Self> {
        let in_file =
            |err: io::Error| io::Error::new(err.kind(), format!("{}: {err}", path.display()));
        let mut reader = BufReader::new(File::open(path).map_err(in_file)?);
        let header = TraceHeader::decode(&mut reader).map_err(in_file)?;
        Ok(Self { path: path.to_path_buf(), header })
    }

    /// The decoded header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The trace file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Starts one decoding pass over the records.
    ///
    /// # Errors
    ///
    /// Returns file-open or header errors (the file is re-read from the
    /// start so concurrent passes are independent).
    pub fn records(&self) -> io::Result<RecordDecoder<BufReader<File>>> {
        let mut reader = BufReader::new(File::open(&self.path)?);
        TraceHeader::decode(&mut reader)?;
        Ok(RecordDecoder::new(reader, self.header.record_count))
    }

    /// Decodes the whole trace once, verifying the checksum, and returns the
    /// per-field statistics.
    ///
    /// # Errors
    ///
    /// Returns any decode or checksum error.
    pub fn stats(&self) -> io::Result<TraceStats> {
        let mut decoder = self.records()?;
        let mut stats = TraceStats { min_addr: u64::MAX, ..TraceStats::default() };
        let mut pages: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut pcs: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for record in &mut decoder {
            let record = record?;
            stats.fold(&record);
            pages.insert(record.addr.page().raw());
            pcs.insert(record.pc.raw());
        }
        decoder.verify(&self.header)?;
        if self.header.record_count == 0 {
            stats.min_addr = 0;
        }
        stats.touched_pages = pages.len() as u64;
        stats.distinct_pcs = pcs.len() as u64;
        Ok(stats)
    }

    /// Re-walks the trace block by block, checking every block's structure
    /// (frame varints, record payloads, header record count) and finally the
    /// FNV-1a64 body checksum against the header's stored value — the check
    /// `trace info --verify` runs. Returns the number of blocks walked.
    ///
    /// Unlike [`TraceReader::stats`], which detects corruption as a side
    /// effect of decoding records, this pass is about *localising* it:
    /// structural errors name the 1-based block (and record within it) where
    /// the walk failed.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] with a `block N:`-prefixed
    /// message for structural corruption, and a block-count-qualified
    /// checksum-mismatch message when the body hashes to something other
    /// than the header's stored checksum.
    pub fn verify_blocks(&self) -> io::Result<u64> {
        let block_err = |block: u64, msg: String| {
            io::Error::new(io::ErrorKind::InvalidData, format!("block {block}: {msg}"))
        };
        let mut reader = BufReader::new(File::open(&self.path)?);
        TraceHeader::decode(&mut reader)?;
        let mut checksum = format::FNV_OFFSET;
        let mut remaining = self.header.record_count;
        let mut blocks: u64 = 0;
        while remaining > 0 {
            let block = blocks + 1;
            let Some((records, payload_len)) =
                read_block_frame(&mut reader).map_err(|err| block_err(block, err.to_string()))?
            else {
                return Err(block_err(
                    block,
                    format!("trace ends {remaining} record(s) early (truncated file?)"),
                ));
            };
            if records == 0 {
                return Err(block_err(block, "empty block".to_string()));
            }
            if records > remaining {
                return Err(block_err(
                    block,
                    format!(
                        "block of {records} record(s) overruns the header count by {}",
                        records - remaining
                    ),
                ));
            }
            let mut frame = Vec::with_capacity(2 * varint::MAX_VARINT_BYTES);
            varint::encode_u64(records, &mut frame);
            varint::encode_u64(payload_len, &mut frame);
            checksum = format::fnv1a(checksum, &frame);
            let len = usize::try_from(payload_len).map_err(|_| {
                block_err(block, format!("payload length {payload_len} exceeds usize"))
            })?;
            let mut payload = vec![0u8; len];
            reader.read_exact(&mut payload).map_err(|err| {
                block_err(block, format!("payload of {payload_len} byte(s) is truncated: {err}"))
            })?;
            checksum = format::fnv1a(checksum, &payload);
            // The payload must hold exactly `records` delta triples.
            let mut cursor = io::Cursor::new(&payload[..]);
            for record in 0..records {
                let triple = varint::decode_i64(&mut cursor)
                    .and_then(|_| varint::decode_i64(&mut cursor))
                    .and_then(|_| varint::decode_u64(&mut cursor));
                if let Err(err) = triple {
                    return Err(block_err(block, format!("record {}: {err}", record + 1)));
                }
            }
            let undecoded = payload_len - cursor.position();
            if undecoded != 0 {
                return Err(block_err(
                    block,
                    format!("payload carries {undecoded} undecoded byte(s) after the last record"),
                ));
            }
            remaining -= records;
            blocks = block;
        }
        let mut tail = [0u8; 1];
        if reader.read(&mut tail)? != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trailing bytes after block {blocks}"),
            ));
        }
        if checksum != self.header.checksum {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "body checksum mismatch over {blocks} block(s): blocks hash to \
                     {checksum:#018x}, header says {:#018x} (corrupt or hand-edited trace)",
                    self.header.checksum
                ),
            ));
        }
        Ok(blocks)
    }

    /// A lazy [`TraceSource`] replaying the file, optionally capped to the
    /// first `cap` records. Every replay re-opens the file; a file that is
    /// deleted or corrupted *between* `open` and a replay makes that replay
    /// panic with the underlying error (the experiment engine has no error
    /// channel inside a running cell), so validate first where that matters.
    #[must_use]
    pub fn source(&self, cap: Option<usize>) -> TraceSource {
        let count = usize::try_from(self.header.record_count).unwrap_or(usize::MAX);
        let accesses = cap.map_or(count, |c| c.min(count));
        let path = Arc::new(self.path.clone());
        let header_count = self.header.record_count;
        let header_checksum = self.header.checksum;
        TraceSource::new(
            self.header.name.clone(),
            self.header.memory_intensive,
            accesses,
            move || {
                let path = Arc::clone(&path);
                let mut reader = BufReader::new(File::open(path.as_ref()).unwrap_or_else(|err| {
                    panic!("replaying {}: {err}", path.display());
                }));
                TraceHeader::decode(&mut reader).unwrap_or_else(|err| {
                    panic!("replaying {}: {err}", path.display());
                });
                let display = path.display().to_string();
                let decoder = RecordDecoder::new(reader, header_count).verifying(header_checksum);
                Box::new(decoder.map(move |record| {
                    record.unwrap_or_else(|err| panic!("replaying {display}: {err}"))
                }))
            },
        )
        // Tie the source identity to the file *content* (body checksum +
        // generation seed from the header), not the path: re-recorded or
        // moved files only share a cache identity when their records match.
        .with_content_tag(&format!("altr:{:#018x}", header_checksum))
        .with_content_seed(self.header.seed)
    }
}

/// Convenience: opens `path` and returns a [`TraceSource`] over it, capped
/// to `cap` records when given.
///
/// # Errors
///
/// Returns the [`TraceReader::open`] errors.
pub fn file_source(path: &Path, cap: Option<usize>) -> io::Result<TraceSource> {
    Ok(TraceReader::open(path)?.source(cap))
}
