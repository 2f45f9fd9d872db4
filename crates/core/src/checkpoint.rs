//! Checkpointing: save and restore a trained [`TfmaeDetector`].
//!
//! A checkpoint is a little-endian binary file, format version 4:
//!
//! ```text
//! magic     8 bytes   b"TFMAECK\0"
//! version   u32       4
//! count     u32       number of sections, 1..=3
//! table     count × { kind u32, crc32 u32, len u64 }
//! head_crc  u32       IEEE CRC-32 of every byte above
//! bodies    the section bodies, in table order, back to back
//! ```
//!
//! Section kinds are the model payload (1, required), the adaptive state (2)
//! and the quant metadata (3). Each body carries its own CRC-32
//! in the table, and the table itself is covered by `head_crc`, so a damaged
//! frame is always [`CheckpointError::Corrupt`] while a damaged optional
//! section follows that section's policy (see
//! [`TfmaeDetector::load_full`]). Every length read from the file is checked
//! against the bytes left before anything is allocated for it. Floats are
//! stored as their raw bits, and only parameter values are stored, never
//! gradients. JSON checkpoints (formats 1 and 2) and binary format 3 are not
//! read.
//!
//! Writes are atomic (temp file + rename) and the previous checkpoint is kept
//! as a `.bak` sibling, which [`TfmaeDetector::load_full`], the one file
//! loader, falls back to when the primary is corrupt.

use std::fs;
use std::path::{Path, PathBuf};

use tfmae_data::ZScore;
use tfmae_tensor::{ParamStore, Precision, QuantStore};

use crate::adapt::AdaptiveSnapshot;
use crate::config::{AdversarialMode, FreqMaskKind, TemporalMaskKind, TfmaeConfig};
use crate::detector::TfmaeDetector;
use crate::model::TfmaeModel;

/// Snapshot of a trained detector: the model payload of a checkpoint.
pub struct Checkpoint {
    /// Model hyper-parameters.
    pub config: TfmaeConfig,
    /// Input feature count the model was built for.
    pub dims: usize,
    /// Per-channel normalization means.
    pub norm_mean: Vec<f32>,
    /// Per-channel normalization standard deviations.
    pub norm_std: Vec<f32>,
    /// All trainable parameters.
    pub params: ParamStore,
}

/// Quantization metadata stored in the quant section (see
/// [`TfmaeDetector::save_quantized`]). The packed weights themselves are
/// never stored: re-quantizing the f32 payload reproduces them bit for bit,
/// and the per-parameter CRCs here prove it did.
#[derive(Clone, PartialEq, Debug)]
pub struct QuantMeta {
    /// Serving precision the checkpoint was quantized for (never `F32`).
    pub precision: Precision,
    /// One entry per quantized (2-D) parameter, in registration order.
    pub params: Vec<QuantParamMeta>,
    /// Total packed bytes across all entries.
    pub quant_bytes: usize,
    /// f32 bytes the packed copies replace.
    pub f32_bytes: usize,
}

/// One quantized parameter's fingerprint inside [`QuantMeta`].
#[derive(Clone, PartialEq, Debug)]
pub struct QuantParamMeta {
    /// Parameter name (mirrors the `ParamStore` entry).
    pub name: String,
    /// Weight shape `[in_dim, out_dim]`.
    pub shape: Vec<usize>,
    /// CRC-32 of the canonical packed-byte serialization
    /// (`QuantParam::encoded_bytes`).
    pub crc32: u32,
    /// Per-layer parity bound `max |dequant(q) − w|` measured at
    /// quantization time.
    pub max_abs_err: f32,
}

/// Fingerprints a quant store for the checkpoint section.
fn quant_meta_of(qs: &QuantStore) -> QuantMeta {
    QuantMeta {
        precision: qs.precision(),
        params: qs
            .params()
            .map(|(_, qp)| QuantParamMeta {
                name: qp.name.clone(),
                shape: qp.shape.clone(),
                crc32: crc32_ieee(&qp.encoded_bytes()),
                max_abs_err: qp.max_abs_err,
            })
            .collect(),
        quant_bytes: qs.bytes(),
        f32_bytes: qs.f32_bytes(),
    }
}

/// Re-quantizes `ps` at the section's precision and checks the result
/// against the stored fingerprints — the load half of the bitwise-stable
/// re-quantization contract. Any disagreement means the payload and the
/// section describe different weights: hard [`CheckpointError::Corrupt`].
fn verify_quant_meta(meta: &QuantMeta, ps: &ParamStore) -> Result<(), CheckpointError> {
    if meta.precision == Precision::F32 {
        return Err(CheckpointError::Corrupt("quant section claims precision f32".into()));
    }
    if !ps.values_finite() {
        return Err(CheckpointError::Corrupt("non-finite weights under a quant section".into()));
    }
    let qs = QuantStore::from_params(ps, meta.precision);
    let got = quant_meta_of(&qs);
    if got.params.len() != meta.params.len() {
        return Err(CheckpointError::Corrupt(format!(
            "quant section lists {} parameters, payload re-quantizes to {}",
            meta.params.len(),
            got.params.len()
        )));
    }
    for (g, m) in got.params.iter().zip(meta.params.iter()) {
        if g.name != m.name || g.shape != m.shape {
            return Err(CheckpointError::Corrupt(format!(
                "quant section entry '{}' {:?} does not match payload parameter '{}' {:?}",
                m.name, m.shape, g.name, g.shape
            )));
        }
        if g.crc32 != m.crc32 || g.max_abs_err.to_bits() != m.max_abs_err.to_bits() {
            return Err(CheckpointError::Corrupt(format!(
                "re-quantization of '{}' disagrees with the quant section \
                 (CRC {:08x} vs stored {:08x})",
                m.name, g.crc32, m.crc32
            )));
        }
    }
    Ok(())
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 4;

/// First eight bytes of every checkpoint file.
const MAGIC: [u8; 8] = *b"TFMAECK\0";
/// Magic, version and section count.
const HEADER_BYTES: usize = 16;
/// One section-table entry: kind, CRC-32 and body length.
const ENTRY_BYTES: usize = 16;

/// The section kinds, in the order a save writes them. A kind's tag in the
/// table is its discriminant plus one.
#[derive(Clone, Copy)]
enum Kind {
    Payload,
    Adaptive,
    Quant,
}

/// One section of each kind at most.
const MAX_SECTIONS: usize = 3;

/// One section body and the CRC-32 the table stores for it.
#[derive(Clone, Copy)]
struct Section<'a> {
    crc32: u32,
    body: &'a [u8],
}

impl Section<'_> {
    /// `Err("stored …, computed …")` when the body does not hash to the
    /// stored CRC.
    fn check(&self) -> Result<(), String> {
        let computed = crc32_ieee(self.body);
        if computed == self.crc32 {
            Ok(())
        } else {
            Err(format!("stored {:08x}, computed {computed:08x}", self.crc32))
        }
    }

    /// Checks the CRC, then decodes the whole body; `Err` says which step
    /// failed. What a failure means is the caller's policy.
    fn open<T: Codec>(&self) -> Result<T, String> {
        self.check().map_err(|e| format!("corrupt (CRC {e})"))?;
        decode_exact(self.body).map_err(|e| format!("unparsable ({e})"))
    }
}

/// A checkpoint file whose frame verified: magic, header CRC, version, a
/// section table of known, distinct kinds including the payload, and body
/// lengths that add up to the file exactly. Section bodies are not checked
/// yet.
struct Sections<'a> {
    slots: [Option<Section<'a>>; MAX_SECTIONS],
}

impl<'a> Sections<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        let corrupt = CheckpointError::Corrupt;
        if bytes.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{') {
            return Err(corrupt(
                "JSON checkpoint (format 1 or 2): only binary format 4 is read; \
                 retrain and save the model again"
                    .into(),
            ));
        }
        if !bytes.starts_with(&MAGIC) {
            return Err(corrupt("not a tfmae checkpoint (bad magic)".into()));
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..]);
        let truncated = |e: String| corrupt(format!("truncated header: {e}"));
        let version = r.u32().map_err(truncated)?;
        let count = r.u32().map_err(truncated)? as usize;
        if !(1..=MAX_SECTIONS).contains(&count) {
            return Err(corrupt(format!("section count {count} outside 1..={MAX_SECTIONS}")));
        }
        fn entry(r: &mut Reader<'_>) -> Result<(u32, u32, u64), String> {
            Ok((r.u32()?, r.u32()?, r.u64()?))
        }
        let mut table = [(0, 0, 0); MAX_SECTIONS];
        for slot in &mut table[..count] {
            *slot = entry(&mut r).map_err(truncated)?;
        }
        let head_end = HEADER_BYTES + count * ENTRY_BYTES;
        let stored = r.u32().map_err(truncated)?;
        let computed = crc32_ieee(&bytes[..head_end]);
        if stored != computed {
            return Err(corrupt(format!(
                "header CRC32 mismatch: stored {stored:08x}, computed {computed:08x}"
            )));
        }
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(version));
        }
        let mut slots = [None; MAX_SECTIONS];
        for &(tag, crc32, len) in &table[..count] {
            let slot = (tag as usize)
                .checked_sub(1)
                .and_then(|i| slots.get_mut(i))
                .ok_or_else(|| corrupt(format!("unknown section kind {tag}")))?;
            if slot.is_some() {
                return Err(corrupt(format!("section kind {tag} appears twice")));
            }
            let left = r.left();
            let body = usize::try_from(len).ok().and_then(|n| r.take(n).ok()).ok_or_else(|| {
                corrupt(format!("section kind {tag} claims {len} bytes, {left} left"))
            })?;
            *slot = Some(Section { crc32, body });
        }
        if r.left() != 0 {
            return Err(corrupt(format!("{} trailing bytes after the last section", r.left())));
        }
        if slots[0].is_none() {
            return Err(corrupt("no payload section".into()));
        }
        Ok(Sections { slots })
    }

    fn get(&self, kind: Kind) -> Option<Section<'a>> {
        self.slots[kind as usize]
    }

    fn payload(&self) -> Section<'a> {
        self.get(Kind::Payload).expect("parse rejects a file without a payload section")
    }
}

/// Frames `sections` (in the order given) as a current-version checkpoint
/// file.
fn encode_file(sections: &[(Kind, Vec<u8>)]) -> Vec<u8> {
    let bodies: usize = sections.iter().map(|(_, b)| b.len()).sum();
    let mut out = Vec::with_capacity(HEADER_BYTES + sections.len() * ENTRY_BYTES + 4 + bodies);
    out.extend_from_slice(&MAGIC);
    out.put_u32(CHECKPOINT_VERSION);
    out.put_u32(sections.len() as u32);
    for (kind, body) in sections {
        out.put_u32(*kind as u32 + 1);
        out.put_u32(crc32_ieee(body));
        out.put_u64(body.len() as u64);
    }
    out.put_u32(crc32_ieee(&out));
    for (_, body) in sections {
        out.extend_from_slice(body);
    }
    out
}

/// Little-endian writes onto a byte buffer. Lengths and `usize`s are `u64`.
trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }
    fn put_str(&mut self, s: &str);
    fn put_f32s(&mut self, vs: &[f32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f32(v);
        }
    }
    fn put_usizes(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.extend_from_slice(s.as_bytes());
    }
}

/// A cursor over untrusted bytes. Every read checks the bytes left first,
/// and a length prefix is checked against them before anything is
/// allocated, so decoding never allocates more than its input's size.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    fn left(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!("needs {n} bytes, {} left", self.rest.len()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("{v} does not fit in usize"))
    }

    fn f32(&mut self) -> Result<f32, String> {
        self.u32().map(f32::from_bits)
    }

    fn f64(&mut self) -> Result<f64, String> {
        self.u64().map(f64::from_bits)
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bool byte {b}")),
        }
    }

    /// A `u64` element count whose `elem_bytes`-sized elements must fit in
    /// the bytes left.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let n = self.usize()?;
        match n.checked_mul(elem_bytes) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(format!("{n} elements of {elem_bytes} bytes, {} left", self.rest.len())),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "string is not UTF-8".into())
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    fn usizes(&mut self) -> Result<Vec<usize>, String> {
        let n = self.count(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// One of `all`, stored as its index.
    fn tag<T: Copy>(&mut self, all: &[T], what: &str) -> Result<T, String> {
        let i = self.u8()?;
        all.get(i as usize).copied().ok_or_else(|| format!("unknown {what} tag {i}"))
    }
}

fn put_tag<T: PartialEq>(w: &mut Vec<u8>, all: &[T], v: &T) {
    let i = all.iter().position(|x| x == v).expect("every variant is listed in its tag table");
    w.put_u8(i as u8);
}

/// Decodes `bytes` as exactly one `T`, trailing bytes included in the error.
fn decode_exact<T: Codec>(bytes: &[u8]) -> Result<T, String> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    match r.left() {
        0 => Ok(value),
        n => Err(format!("{n} trailing bytes")),
    }
}

/// The binary encoding of one section body.
trait Codec: Sized {
    fn encode(&self, w: &mut Vec<u8>);
    fn decode(r: &mut Reader<'_>) -> Result<Self, String>;

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        self.encode(&mut w);
        w
    }
}

const TEMPORAL_MASKS: [TemporalMaskKind; 4] =
    [TemporalMaskKind::Cv, TemporalMaskKind::Std, TemporalMaskKind::Random, TemporalMaskKind::None];
const FREQ_MASKS: [FreqMaskKind; 4] =
    [FreqMaskKind::Amplitude, FreqMaskKind::HighFreq, FreqMaskKind::Random, FreqMaskKind::None];
const ADVERSARIAL_MODES: [AdversarialMode; 3] =
    [AdversarialMode::Full, AdversarialMode::NoAdversarial, AdversarialMode::Reversed];
const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::Bf16, Precision::Int8];

impl Codec for TfmaeConfig {
    /// Field by field in declaration order; `decode`'s struct literal names
    /// every field, so a new one does not compile until both sides have it.
    fn encode(&self, w: &mut Vec<u8>) {
        for v in [self.win_len, self.d_model, self.heads, self.d_ff, self.layers] {
            w.put_usize(v);
        }
        w.put_usize(self.cv_window);
        w.put_f64(self.r_temporal);
        w.put_f64(self.r_frequency);
        w.put_f32(self.lr);
        w.put_usize(self.epochs);
        w.put_usize(self.batch);
        w.put_bool(self.use_fft_cv);
        put_tag(w, &TEMPORAL_MASKS, &self.temporal_mask);
        put_tag(w, &FREQ_MASKS, &self.freq_mask);
        put_tag(w, &ADVERSARIAL_MODES, &self.adversarial);
        for v in [
            self.use_temporal_branch,
            self.use_frequency_branch,
            self.temporal_encoder,
            self.temporal_decoder,
            self.frequency_decoder,
        ] {
            w.put_bool(v);
        }
        w.put_f32(self.recon_weight);
        w.put_usize(self.train_stride);
        w.put_u64(self.seed);
        w.put_usize(self.patch_len);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(TfmaeConfig {
            win_len: r.usize()?,
            d_model: r.usize()?,
            heads: r.usize()?,
            d_ff: r.usize()?,
            layers: r.usize()?,
            cv_window: r.usize()?,
            r_temporal: r.f64()?,
            r_frequency: r.f64()?,
            lr: r.f32()?,
            epochs: r.usize()?,
            batch: r.usize()?,
            use_fft_cv: r.bool()?,
            temporal_mask: r.tag(&TEMPORAL_MASKS, "temporal mask")?,
            freq_mask: r.tag(&FREQ_MASKS, "frequency mask")?,
            adversarial: r.tag(&ADVERSARIAL_MODES, "adversarial mode")?,
            use_temporal_branch: r.bool()?,
            use_frequency_branch: r.bool()?,
            temporal_encoder: r.bool()?,
            temporal_decoder: r.bool()?,
            frequency_decoder: r.bool()?,
            recon_weight: r.f32()?,
            train_stride: r.usize()?,
            seed: r.u64()?,
            patch_len: r.usize()?,
        })
    }
}

/// Smallest encoding of one parameter: three empty length prefixes.
const MIN_PARAM_BYTES: usize = 24;

impl Codec for Checkpoint {
    fn encode(&self, w: &mut Vec<u8>) {
        self.config.encode(w);
        w.put_usize(self.dims);
        w.put_f32s(&self.norm_mean);
        w.put_f32s(&self.norm_std);
        w.put_usize(self.params.len());
        for p in self.params.params() {
            w.put_str(&p.name);
            w.put_usizes(&p.shape);
            w.put_f32s(&p.data);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let config = TfmaeConfig::decode(r)?;
        let dims = r.usize()?;
        let norm_mean = r.f32s()?;
        let norm_std = r.f32s()?;
        let mut params = ParamStore::new();
        for _ in 0..r.count(MIN_PARAM_BYTES)? {
            let name = r.string()?;
            let shape = r.usizes()?;
            let data = r.f32s()?;
            let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if numel != Some(data.len()) {
                return Err(format!(
                    "parameter '{name}' has {} values for shape {shape:?}",
                    data.len()
                ));
            }
            params.add(name, data, shape);
        }
        Ok(Checkpoint { config, dims, norm_mean, norm_std, params })
    }
}

impl Codec for AdaptiveSnapshot {
    fn encode(&self, w: &mut Vec<u8>) {
        w.put_f32(self.threshold);
        w.put_u64(self.recalibrations);
        w.put_u32(self.cadence_mult);
        w.put_u32(self.last_good_hash);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(AdaptiveSnapshot {
            threshold: r.f32()?,
            recalibrations: r.u64()?,
            cadence_mult: r.u32()?,
            last_good_hash: r.u32()?,
        })
    }
}

/// Smallest encoding of one [`QuantParamMeta`]: two empty length prefixes,
/// the CRC and the error bound.
const MIN_QUANT_PARAM_BYTES: usize = 24;

impl Codec for QuantMeta {
    fn encode(&self, w: &mut Vec<u8>) {
        put_tag(w, &PRECISIONS, &self.precision);
        w.put_usize(self.params.len());
        for p in &self.params {
            w.put_str(&p.name);
            w.put_usizes(&p.shape);
            w.put_u32(p.crc32);
            w.put_f32(p.max_abs_err);
        }
        w.put_usize(self.quant_bytes);
        w.put_usize(self.f32_bytes);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let precision = r.tag(&PRECISIONS, "precision")?;
        let params = (0..r.count(MIN_QUANT_PARAM_BYTES)?)
            .map(|_| {
                Ok(QuantParamMeta {
                    name: r.string()?,
                    shape: r.usizes()?,
                    crc32: r.u32()?,
                    max_abs_err: r.f32()?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(QuantMeta { precision, params, quant_bytes: r.usize()?, f32_bytes: r.usize()? })
    }
}

/// What a light-weight scan learned about a checkpoint file — the per-file
/// row behind `tfmae models ls` and the server's model registry listing.
///
/// Produced by [`inspect_checkpoint`], which verifies the frame and every
/// section CRC and decodes the payload but never constructs the model: no
/// parameter-layout validation, no re-quantization. `crc_ok && loadable` is
/// therefore necessary but not sufficient for a successful activation — the
/// full [`TfmaeDetector::load_full`] (which re-quantizes against the quant
/// section's fingerprints) remains the authority when a model is actually
/// loaded to serve.
#[derive(Clone, Debug)]
pub struct CheckpointInfo {
    /// File format version.
    pub version: u32,
    /// Whether every section CRC verified: the payload's and, when present,
    /// the adaptive and quant sections'.
    pub crc_ok: bool,
    /// Whether the payload decoded as a checkpoint (the frame may be intact
    /// while the payload is damaged).
    pub loadable: bool,
    /// Serving precision stored in the quant section, when one exists.
    pub precision: Option<Precision>,
    /// Whether the file carries an adaptive-state section.
    pub adaptive: bool,
    /// Temporal patch length (1 = unpatched); 0 when the payload was
    /// unreadable.
    pub patch_len: usize,
    /// Model window length; 0 when the payload was unreadable.
    pub win_len: usize,
    /// Model width; 0 when the payload was unreadable.
    pub d_model: usize,
    /// Input feature count; 0 when the payload was unreadable.
    pub dims: usize,
    /// On-disk size in bytes.
    pub file_bytes: u64,
}

/// Scans a checkpoint file without loading the model (see
/// [`CheckpointInfo`]). Errors on I/O, and with the reason when the file's
/// frame does not verify (a JSON checkpoint, a foreign file, a damaged
/// header or section table); damage inside sections is *reported* via
/// [`CheckpointInfo::crc_ok`] / [`CheckpointInfo::loadable`] instead of
/// failing, so a registry listing can show a damaged file next to healthy
/// ones.
pub fn inspect_checkpoint(path: impl AsRef<Path>) -> Result<CheckpointInfo, CheckpointError> {
    let bytes = fs::read(path.as_ref())?;
    let file = Sections::parse(&bytes)?;
    let crc_ok = file.slots.iter().flatten().all(|s| s.check().is_ok());
    let precision =
        file.get(Kind::Quant).and_then(|s| s.open::<QuantMeta>().ok()).map(|m| m.precision);
    let head = decode_exact::<Checkpoint>(file.payload().body).ok();
    let cfg = head.as_ref().map(|c| &c.config);
    Ok(CheckpointInfo {
        version: CHECKPOINT_VERSION,
        crc_ok,
        loadable: head.is_some(),
        precision,
        adaptive: file.get(Kind::Adaptive).is_some(),
        patch_len: cfg.map_or(0, |c| c.patch_len),
        win_len: cfg.map_or(0, |c| c.win_len),
        d_model: cfg.map_or(0, |c| c.d_model),
        dims: head.as_ref().map_or(0, |c| c.dims),
        file_bytes: bytes.len() as u64,
    })
}

/// IEEE CRC-32 (polynomial `0xEDB88320`, as used by zip/PNG/Ethernet).
pub fn crc32_ieee(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        *entry = c;
    }
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ u32::MAX
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structurally valid checkpoint with inconsistent contents.
    Parse(String),
    /// Detector has not been fitted yet.
    NotFitted,
    /// Detector serves quantized weights: the f32 copies were released by
    /// [`TfmaeDetector::set_precision`](crate::TfmaeDetector::set_precision)
    /// and there is no payload left to checkpoint. Save before quantizing.
    Quantized,
    /// File format version this build does not read.
    Version(u32),
    /// The file is damaged or not a binary checkpoint: checksum
    /// mismatch, truncation, a JSON checkpoint, or not a checkpoint at all.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            CheckpointError::NotFitted => write!(f, "detector must be fitted before saving"),
            CheckpointError::Quantized => {
                write!(f, "detector is quantized (f32 weights released); cannot checkpoint")
            }
            CheckpointError::Version(v) => write!(
                f,
                "unsupported checkpoint version {v} (this build reads version \
                 {CHECKPOINT_VERSION}); retrain and save the model again"
            ),
            CheckpointError::Corrupt(e) => write!(f, "checkpoint corrupt: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// `model.json` → `model.json.bak` / `model.json.tmp`.
fn sibling(path: &Path, ext: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".");
    name.push(ext);
    path.with_file_name(name)
}

impl TfmaeDetector {
    /// Copies the fitted detector into a checkpoint value.
    pub fn to_checkpoint(&self) -> Result<Checkpoint, CheckpointError> {
        if self.quant().is_some() {
            return Err(CheckpointError::Quantized);
        }
        let model = self.model().ok_or(CheckpointError::NotFitted)?;
        let norm = self.norm().ok_or(CheckpointError::NotFitted)?;
        Ok(Checkpoint {
            config: self.cfg.clone(),
            dims: model.dims(),
            norm_mean: norm.mean.clone(),
            norm_std: norm.std.clone(),
            params: model.ps.clone(),
        })
    }

    /// Saves the fitted detector to a checkpoint file.
    ///
    /// The write is atomic (temp file + rename), so a crash mid-save never
    /// leaves a half-written checkpoint at `path`; if `path` already
    /// exists, its previous contents survive as a `.bak` sibling.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.save_with_adaptive(path, None)
    }

    /// [`TfmaeDetector::save`] plus an optional adaptive-state section
    /// (see [`ServingEngine::adaptive_snapshot`]) with its own CRC.
    ///
    /// [`ServingEngine::adaptive_snapshot`]: crate::ServingEngine::adaptive_snapshot
    pub fn save_with_adaptive(
        &self,
        path: impl AsRef<Path>,
        adaptive: Option<&AdaptiveSnapshot>,
    ) -> Result<(), CheckpointError> {
        self.save_impl(path.as_ref(), adaptive, None)
    }

    /// [`TfmaeDetector::save`] plus a quant section: the f32 payload is
    /// written as usual together with CRC-covered [`QuantMeta`]
    /// fingerprinting the deterministic quantization of every 2-D weight at
    /// `precision`. Loading through [`TfmaeDetector::load_full`]
    /// re-quantizes and verifies those fingerprints, then reports
    /// `precision` so serving can apply it. `Precision::F32` degrades to a
    /// plain [`TfmaeDetector::save`].
    ///
    /// Must be called **before** [`set_precision`] releases the f32
    /// weights.
    ///
    /// [`set_precision`]: TfmaeDetector::set_precision
    pub fn save_quantized(
        &self,
        path: impl AsRef<Path>,
        precision: Precision,
    ) -> Result<(), CheckpointError> {
        let quant = (precision != Precision::F32).then_some(precision);
        self.save_impl(path.as_ref(), None, quant)
    }

    fn save_impl(
        &self,
        path: &Path,
        adaptive: Option<&AdaptiveSnapshot>,
        quant: Option<Precision>,
    ) -> Result<(), CheckpointError> {
        let ckpt = self.to_checkpoint()?;
        let mut sections = vec![(Kind::Payload, ckpt.to_bytes())];
        if let Some(snap) = adaptive {
            sections.push((Kind::Adaptive, snap.to_bytes()));
        }
        if let Some(precision) = quant {
            if !ckpt.params.values_finite() {
                return Err(CheckpointError::Parse(
                    "non-finite weights; refusing to quantize".into(),
                ));
            }
            let qs = QuantStore::from_params(&ckpt.params, precision);
            sections.push((Kind::Quant, quant_meta_of(&qs).to_bytes()));
        }
        let tmp = sibling(path, "tmp");
        fs::write(&tmp, encode_file(&sections))?;
        if path.exists() {
            // Best-effort: losing the backup must not fail the save.
            let _ = fs::rename(path, sibling(path, "bak"));
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Restores a detector from a checkpoint value, checking it against the
    /// model its config describes. The config is untrusted: the parameter
    /// count it describes must match the stored parameters before anything
    /// is built, so a forged config never sizes an allocation the stored
    /// values do not pay for; then every stored shape must match the
    /// built model's.
    pub fn from_checkpoint(ckpt: Checkpoint) -> Result<Self, CheckpointError> {
        if ckpt.dims == 0 {
            return Err(CheckpointError::Parse("dims must be >= 1".into()));
        }
        ckpt.config
            .validate()
            .map_err(|e| CheckpointError::Parse(format!("invalid config: {e}")))?;
        if ckpt.norm_mean.len() != ckpt.dims || ckpt.norm_std.len() != ckpt.dims {
            return Err(CheckpointError::Parse("normalization dims mismatch".into()));
        }
        if !ckpt.norm_mean.iter().all(|v| v.is_finite())
            || !ckpt.norm_std.iter().all(|v| v.is_finite() && *v > 0.0)
        {
            return Err(CheckpointError::Parse(
                "normalization statistics must be finite with positive std".into(),
            ));
        }
        let stored = (ckpt.params.len(), ckpt.params.num_scalars());
        let described = TfmaeModel::param_count(&ckpt.config, ckpt.dims);
        if described != Some(stored) {
            return Err(CheckpointError::Parse(format!(
                "parameter layout mismatch: the config describes {described:?} \
                 (tensors, scalars), the file stores {stored:?}"
            )));
        }
        let mut model = TfmaeModel::new(ckpt.config.clone(), ckpt.dims);
        let built = model.ps.params().iter().map(|p| &p.shape);
        if !built.eq(ckpt.params.params().iter().map(|p| &p.shape)) {
            return Err(CheckpointError::Parse("parameter shapes disagree with the config".into()));
        }
        model.ps = ckpt.params;
        let norm = ZScore { mean: ckpt.norm_mean, std: ckpt.norm_std };
        Ok(TfmaeDetector::from_parts(ckpt.config, model, norm))
    }

    /// The decode step behind [`TfmaeDetector::load_full`]: the frame and
    /// the payload CRC must verify (`Corrupt` otherwise), then each
    /// optional section keeps its own failure policy. A damaged adaptive
    /// section degrades to a warning and `None`; any damage to the quant
    /// section, or a disagreement with a re-quantization of the payload, is
    /// `Corrupt`.
    fn from_bytes_full(
        bytes: &[u8],
    ) -> Result<(Self, Option<AdaptiveSnapshot>, Option<Precision>), CheckpointError> {
        let file = Sections::parse(bytes)?;
        let payload = file.payload();
        payload.check().map_err(|e| CheckpointError::Corrupt(format!("CRC32 mismatch: {e}")))?;
        let adaptive = file.get(Kind::Adaptive).and_then(|sec| {
            sec.open::<AdaptiveSnapshot>()
                .map_err(|why| {
                    eprintln!(
                        "warning: adaptive checkpoint section {why}; starting adaptation fresh"
                    )
                })
                .ok()
        });
        let quant_meta = file
            .get(Kind::Quant)
            .map(|sec| sec.open::<QuantMeta>())
            .transpose()
            .map_err(|why| CheckpointError::Corrupt(format!("quant section {why}")))?;
        let ckpt: Checkpoint = decode_exact(payload.body).map_err(CheckpointError::Parse)?;
        if let Some(meta) = &quant_meta {
            verify_quant_meta(meta, &ckpt.params)?;
        }
        let precision = quant_meta.map(|meta| meta.precision);
        Self::from_checkpoint(ckpt).map(|det| (det, adaptive, precision))
    }

    /// Loads a detector from a checkpoint file, together with its adaptive
    /// section and the quant section's stored precision (see
    /// [`TfmaeDetector::save_with_adaptive`] and
    /// [`TfmaeDetector::save_quantized`]). The returned detector still
    /// serves f32; apply the precision with
    /// [`set_precision`](TfmaeDetector::set_precision), so `--precision f32`
    /// on a quantized checkpoint stays bitwise identical to a plain f32
    /// load.
    ///
    /// If the primary file is corrupt (CRC mismatch, truncation, garbage)
    /// and a `.bak` sibling from a previous save exists, recovery from the
    /// backup is attempted before giving up; the original error is
    /// returned if the backup is unusable too.
    pub fn load_full(
        path: impl AsRef<Path>,
    ) -> Result<(Self, Option<AdaptiveSnapshot>, Option<Precision>), CheckpointError> {
        let path = path.as_ref();
        let read = |p: &Path| Self::from_bytes_full(&fs::read(p)?);
        match read(path) {
            Err(primary @ (CheckpointError::Corrupt(_) | CheckpointError::Parse(_))) => {
                let bak = sibling(path, "bak");
                if !bak.exists() {
                    return Err(primary);
                }
                eprintln!(
                    "warning: checkpoint {} unusable ({primary}); recovering from {}",
                    path.display(),
                    bak.display()
                );
                read(&bak).map_err(|_| primary)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tfmae_data::{render, Component, Detector, TimeSeries};

    fn series(len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let ch = render(
            &[
                Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 },
                Component::Noise { sigma: 0.05 },
            ],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[ch])
    }

    fn fitted(seed: u64) -> TfmaeDetector {
        let train = series(256, seed);
        let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
        det.fit(&train, &train);
        det
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tfmae_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    /// Byte range of the `kind` section's body inside `bytes`.
    fn body_range(bytes: &[u8], kind: Kind) -> std::ops::Range<usize> {
        let file = Sections::parse(bytes).unwrap();
        let body = file.get(kind).expect("section present").body;
        let start = body.as_ptr() as usize - bytes.as_ptr() as usize;
        start..start + body.len()
    }

    /// Rewrites the file at `path` after `edit` changed its sections, with
    /// every CRC recomputed: the result is a well-formed file whose content
    /// disagrees with itself only as `edit` made it.
    fn reseal(path: &Path, edit: impl FnOnce(&mut Vec<(Kind, Vec<u8>)>)) {
        let bytes = std::fs::read(path).unwrap();
        let file = Sections::parse(&bytes).unwrap();
        let kinds = [Kind::Payload, Kind::Adaptive, Kind::Quant];
        let mut sections: Vec<(Kind, Vec<u8>)> =
            kinds.into_iter().filter_map(|k| file.get(k).map(|s| (k, s.body.to_vec()))).collect();
        edit(&mut sections);
        std::fs::write(path, encode_file(&sections)).unwrap();
    }

    /// Recomputes the header CRC after a deliberate edit of the header or
    /// section table.
    fn reseal_header(bytes: &mut [u8]) {
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let end = HEADER_BYTES + count * ENTRY_BYTES;
        let crc = crc32_ieee(&bytes[..end]);
        bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
    }

    fn flip_byte(path: &Path, at: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ieee(b""), 0);
    }

    #[test]
    fn config_codec_roundtrips_every_field() {
        // A distinct value per field, so a swapped pair of same-typed
        // fields between encode and decode cannot cancel out.
        let cfg = TfmaeConfig {
            win_len: 40,
            d_model: 24,
            heads: 3,
            d_ff: 48,
            layers: 5,
            cv_window: 7,
            r_temporal: 0.3,
            r_frequency: 0.15,
            lr: 2e-4,
            epochs: 9,
            batch: 11,
            use_fft_cv: false,
            temporal_mask: TemporalMaskKind::Std,
            freq_mask: FreqMaskKind::HighFreq,
            adversarial: AdversarialMode::Reversed,
            use_temporal_branch: true,
            use_frequency_branch: false,
            temporal_encoder: false,
            temporal_decoder: true,
            frequency_decoder: false,
            recon_weight: 0.5,
            train_stride: 13,
            seed: 99,
            patch_len: 8,
        };
        let back: TfmaeConfig = decode_exact(&cfg.to_bytes()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
    }

    #[test]
    fn roundtrip_preserves_scores_exactly() {
        let det = fitted(1);
        let test = series(96, 2);
        let want = det.score(&test);

        let dir = tmp_dir("roundtrip");
        let path = dir.join("model.json");
        det.save(&path).unwrap();
        assert!(!sibling(&path, "tmp").exists(), "temp file must be renamed away");
        let (restored, ..) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(restored.score(&test), want, "checkpoint must restore bit-identical scoring");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saving_unfitted_detector_fails() {
        let det = TfmaeDetector::new(TfmaeConfig::tiny());
        assert!(matches!(det.to_checkpoint(), Err(CheckpointError::NotFitted)));
    }

    #[test]
    fn newer_version_is_rejected() {
        // A newer frame, and a format-3 one from before the last break:
        // both are `Version`, and the message says what to do.
        let dir = tmp_dir("version");
        let path = dir.join("model.json");
        fitted(3).save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        for version in [CHECKPOINT_VERSION + 1, 3] {
            let mut bytes = saved.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            reseal_header(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            match TfmaeDetector::load_full(&path) {
                Err(e @ CheckpointError::Version(v)) if v == version => {
                    assert!(e.to_string().contains("retrain"), "{e}")
                }
                other => panic!("want Version({version}), got {:?}", other.err()),
            }
            let listed = inspect_checkpoint(&path);
            assert!(matches!(listed, Err(CheckpointError::Version(v)) if v == version));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Saves a real checkpoint, lets `forge` rewrite its decoded payload
    /// behind valid CRCs, and returns what loading gives.
    fn load_forged(tag: &str, forge: fn(&mut Checkpoint)) -> Result<TfmaeDetector, CheckpointError> {
        let dir = tmp_dir(tag);
        let path = dir.join("model.json");
        fitted_at_patch_len(1).save(&path).unwrap();
        reseal(&path, |sections| {
            let mut ckpt: Checkpoint = decode_exact(&sections[0].1).unwrap();
            forge(&mut ckpt);
            sections[0].1 = ckpt.to_bytes();
        });
        let out = TfmaeDetector::load_full(&path).map(|(det, ..)| det);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn forged_config_sizes_are_rejected_before_the_model_is_built() {
        // Each forged size would allocate terabytes (or overflow the count)
        // if the loader built the model the config describes; a forged
        // shape would reach the forward pass.
        type Forge = fn(&mut Checkpoint);
        let forgeries: [(&str, Forge); 8] = [
            ("d_model", |c| c.config.d_model = 1 << 40),
            ("d_ff", |c| c.config.d_ff = 1 << 40),
            ("layers", |c| c.config.layers = 1 << 40),
            ("win_len", |c| c.config.win_len = 1 << 40),
            ("overflow", |c| c.config.d_model = usize::MAX - 1),
            ("dims", |c| c.dims = 1 << 40),
            ("dims_with_norm", |c| {
                c.dims += 1;
                c.norm_mean.push(0.0);
                c.norm_std.push(1.0);
            }),
            // Same counts, wrong shape: `temporal.proj.w` stored transposed.
            ("transposed_weight", |c| {
                let mut params = ParamStore::new();
                for p in c.params.params() {
                    let mut shape = p.shape.clone();
                    if p.name == "temporal.proj.w" {
                        shape.reverse();
                    }
                    params.add(p.name.clone(), p.data.clone(), shape);
                }
                c.params = params;
            }),
        ];
        for (what, forge) in forgeries {
            match load_forged(&format!("forged_{what}"), forge) {
                Err(CheckpointError::Parse(_)) => {}
                other => panic!("forged {what}: want Parse, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn garbage_file_reports_corrupt() {
        let dir = tmp_dir("garbage");
        let path = dir.join("bad.json");
        for (bytes, reason) in [
            (&b"{not json"[..], "JSON checkpoint"),
            (br#"{"version":2,"crc32":0,"payload":"{}"}"#, "JSON checkpoint"),
            (b"\x00\x01garbage", "bad magic"),
            (b"", "bad magic"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            match TfmaeDetector::load_full(&path) {
                Err(CheckpointError::Corrupt(why)) => assert!(why.contains(reason), "{why}"),
                other => panic!("want Corrupt({reason}), got {:?}", other.err()),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_by_crc() {
        let det = fitted(4);
        let dir = tmp_dir("bitflip");
        let path = dir.join("model.json");
        det.save(&path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        flip_byte(&path, len / 2);
        assert!(matches!(TfmaeDetector::load_full(&path), Err(CheckpointError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_stores_values_as_raw_bits_without_gradients() {
        let det = fitted(4);
        let dir = tmp_dir("size");
        let path = dir.join("model.json");
        det.save(&path).unwrap();
        let ps = &det.model().unwrap().ps;
        let file = std::fs::metadata(&path).unwrap().len() as usize;
        // Four bytes per value, plus names, shapes and the frame.
        let values = ps.num_scalars() * 4;
        assert!(file > values && file < values + 64 * ps.len() + 1024, "{file} vs {values}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_primary_recovers_from_bak() {
        let det = fitted(5);
        let test = series(96, 6);
        let want = det.score(&test);
        let dir = tmp_dir("bak");
        let path = dir.join("model.json");
        det.save(&path).unwrap(); // becomes the .bak on the second save
        det.save(&path).unwrap();
        assert!(sibling(&path, "bak").exists());

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap(); // truncate

        let (restored, ..) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(restored.score(&test), want, "recovery from .bak must be exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_without_bak_is_an_error() {
        let det = fitted(7);
        let dir = tmp_dir("nobak");
        let path = dir.join("model.json");
        det.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(TfmaeDetector::load_full(&path), Err(CheckpointError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_section_roundtrips() {
        let det = fitted(10);
        let test = series(96, 11);
        let want = det.score(&test);
        let snap = AdaptiveSnapshot {
            threshold: 0.375,
            recalibrations: 3,
            cadence_mult: 2,
            last_good_hash: 0x1234_5678,
        };
        let dir = tmp_dir("adaptive");
        let path = dir.join("model.json");
        det.save_with_adaptive(&path, Some(&snap)).unwrap();
        let (restored, got, _) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(got, Some(snap));
        assert_eq!(restored.score(&test), want, "model payload unaffected by adaptive section");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_without_adaptive_section_loads_with_none() {
        let det = fitted(12);
        let dir = tmp_dir("noadaptive");
        let path = dir.join("model.json");
        det.save(&path).unwrap();
        let (_, got, _) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(got, None, "checkpoint without the section yields None");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_adaptive_section_degrades_to_none() {
        let det = fitted(13);
        let test = series(96, 14);
        let want = det.score(&test);
        let snap = AdaptiveSnapshot {
            threshold: 1.0,
            recalibrations: 1,
            cadence_mult: 1,
            last_good_hash: 9,
        };
        let dir = tmp_dir("adaptive_corrupt");
        let path = dir.join("model.json");
        det.save_with_adaptive(&path, Some(&snap)).unwrap();
        // Damage only the adaptive section, leaving the model payload and
        // its checksum intact.
        let at = body_range(&std::fs::read(&path).unwrap(), Kind::Adaptive).start;
        flip_byte(&path, at);
        let (restored, got, _) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(got, None, "damaged section must be dropped, not fatal");
        assert_eq!(restored.score(&test), want, "model must still load exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fitted_at_patch_len(patch_len: usize) -> TfmaeDetector {
        // A structurally valid detector without the cost of a fit: fresh
        // params + identity normalization, enough for exact-scoring
        // roundtrip checks.
        let cfg = TfmaeConfig { patch_len, ..TfmaeConfig::tiny() };
        let model = TfmaeModel::new(cfg.clone(), 1);
        let norm = ZScore { mean: vec![0.0], std: vec![1.0] };
        TfmaeDetector::from_parts(cfg, model, norm)
    }

    #[test]
    fn patched_checkpoint_roundtrips_exactly() {
        let det = fitted_at_patch_len(8);
        let test = series(96, 20);
        let want = det.score(&test);
        let dir = tmp_dir("patched");
        let path = dir.join("model.json");
        det.save(&path).unwrap();
        let (restored, ..) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(restored.cfg.patch_len, 8);
        assert_eq!(restored.score(&test), want, "patched roundtrip must be bit-exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `first`, then `second` over it (so `first` becomes the
    /// `.bak`), truncates the primary, and returns what `load_full`
    /// recovers.
    fn recover_after(
        first: impl FnOnce(&Path),
        second: impl FnOnce(&Path),
        tag: &str,
    ) -> (TfmaeDetector, Option<AdaptiveSnapshot>, Option<Precision>) {
        let dir = tmp_dir(tag);
        let path = dir.join("model.json");
        first(&path);
        second(&path);
        assert!(sibling(&path, "bak").exists());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let out = TfmaeDetector::load_full(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn bak_recovery_returns_the_backups_sections() {
        let det = fitted_at_patch_len(8);
        let test = series(96, 40);
        let want = det.score(&test);
        let snap = AdaptiveSnapshot {
            threshold: 0.5,
            recalibrations: 2,
            cadence_mult: 4,
            last_good_hash: 77,
        };
        let quantized = |p: &Path| det.save_quantized(p, Precision::Int8).unwrap();
        let adaptive = |p: &Path| det.save_with_adaptive(p, Some(&snap)).unwrap();

        let (restored, got, stored) = recover_after(quantized, adaptive, "bak_quant");
        assert_eq!((got, stored), (None, Some(Precision::Int8)));
        assert_eq!(restored.cfg.patch_len, 8);
        assert_eq!(restored.score(&test), want, "recovery from .bak must be exact");

        let (restored, got, stored) = recover_after(adaptive, quantized, "bak_adaptive");
        assert_eq!((got, stored), (Some(snap), None));
        assert_eq!(restored.cfg.patch_len, 8);
        assert_eq!(restored.score(&test), want, "recovery from .bak must be exact");
    }

    #[test]
    fn every_cut_of_a_sectioned_checkpoint_is_a_typed_error() {
        let det = fitted_at_patch_len(8);
        let snap = AdaptiveSnapshot {
            threshold: 0.25,
            recalibrations: 1,
            cadence_mult: 1,
            last_good_hash: 3,
        };
        let dir = tmp_dir("cuts");
        let path = dir.join("model.json");
        // All three sections at once, which no single public save writes.
        det.save_impl(&path, Some(&snap), Some(Precision::Int8)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        assert!(n > 512);
        let typed = |what: &str, got: Result<_, CheckpointError>| match got {
            Err(CheckpointError::Corrupt(_) | CheckpointError::Parse(_)) => {}
            other => panic!("{what}: want Corrupt or Parse, got {:?}", other.err()),
        };

        let spread = (0..64).map(|i| i * n / 64);
        let cuts: std::collections::BTreeSet<usize> =
            spread.chain(0..256).chain(n - 256..n).collect();
        let cut = dir.join("cut.json");
        for at in cuts {
            std::fs::write(&cut, &bytes[..at]).unwrap();
            typed(&format!("cut at {at}/{n}"), TfmaeDetector::load_full(&cut));
        }

        // Every bit of the header and section table, head CRC included.
        let head_end = body_range(&bytes, Kind::Payload).start;
        assert_eq!(head_end, HEADER_BYTES + 3 * ENTRY_BYTES + 4);
        let mut flipped = bytes.clone();
        for at in 0..head_end {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                typed(&format!("bit {bit} of byte {at}"), TfmaeDetector::from_bytes_full(&flipped));
                flipped[at] ^= 1 << bit;
            }
        }

        // A seeded sample of payload offsets.
        let payload = body_range(&bytes, Kind::Payload);
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for case in 0..4096 {
            let at = rng.gen_range(payload.clone());
            let bit = rng.gen_range(0..8);
            flipped[at] ^= 1 << bit;
            typed(
                &format!("case {case}: bit {bit} of payload byte {at}"),
                TfmaeDetector::from_bytes_full(&flipped),
            );
            flipped[at] ^= 1 << bit;
        }

        // Forged lengths behind valid CRCs: the payload's table entry, then
        // the first length prefix inside the payload (norm_mean's).
        let mut forged = bytes.clone();
        forged[HEADER_BYTES + 8..HEADER_BYTES + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal_header(&mut forged);
        typed("table length u64::MAX", TfmaeDetector::from_bytes_full(&forged));

        std::fs::write(&path, &bytes).unwrap();
        let at = det.cfg.to_bytes().len() + 8;
        reseal(&path, |sections| {
            sections[0].1[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        typed("norm length u64::MAX", TfmaeDetector::load_full(&path));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quant_section_roundtrips_with_stable_requantization() {
        let det = fitted(30);
        let test = series(96, 31);
        let want = det.score(&test);
        let dir = tmp_dir("quant_roundtrip");
        let path = dir.join("model.json");
        det.save_quantized(&path, Precision::Int8).unwrap();

        let bytes = std::fs::read(&path).unwrap();
        let file = Sections::parse(&bytes).unwrap();
        let sec = file.get(Kind::Quant).expect("save_quantized writes the section");
        let meta: QuantMeta = sec.open().unwrap();
        assert_eq!(meta.precision, Precision::Int8);
        assert!(!meta.params.is_empty() && meta.quant_bytes < meta.f32_bytes);

        // Load re-quantizes the f32 payload and verifies it bitwise against
        // the stored per-param CRCs — so a clean load proves quantization is
        // deterministic across save/load.
        let (loaded, _, stored) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(stored, Some(Precision::Int8));
        assert_eq!(loaded.score(&test), want, "quant section must not perturb f32 scoring");

        // Saving the loaded detector quantized again reproduces the exact
        // same file: bitwise-stable re-quantization.
        let path2 = dir.join("model2.json");
        loaded.save_quantized(&path2, Precision::Int8).unwrap();
        assert_eq!(std::fs::read(&path2).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_without_quant_section_reports_none() {
        let det = fitted(32);
        let dir = tmp_dir("quant_none");
        let path = dir.join("model.json");
        det.save(&path).unwrap();
        let (_, _, stored) = TfmaeDetector::load_full(&path).unwrap();
        assert_eq!(stored, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_quant_section_is_a_hard_error() {
        let det = fitted(33);
        let dir = tmp_dir("quant_corrupt");
        let path = dir.join("model.json");
        det.save_quantized(&path, Precision::Bf16).unwrap();
        let at = body_range(&std::fs::read(&path).unwrap(), Kind::Quant).start;
        flip_byte(&path, at);
        assert!(matches!(TfmaeDetector::load_full(&path), Err(CheckpointError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_consistent_quant_section_disagreeing_with_payload_is_rejected() {
        let det = fitted(34);
        let dir = tmp_dir("quant_forged");
        let path = dir.join("model.json");
        det.save_quantized(&path, Precision::Bf16).unwrap();
        // Forge a section whose own CRC is valid but whose first per-param
        // CRC no longer matches a re-quantization of the payload.
        reseal(&path, |sections| {
            let mut meta: QuantMeta = decode_exact(&sections[1].1).unwrap();
            meta.params[0].crc32 ^= 1;
            sections[1].1 = meta.to_bytes();
        });
        assert!(matches!(TfmaeDetector::load_full(&path), Err(CheckpointError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quantized_detector_cannot_checkpoint() {
        let mut det = fitted(35);
        det.set_precision(Precision::Bf16).unwrap();
        assert!(matches!(det.to_checkpoint(), Err(CheckpointError::Quantized)));
        let dir = tmp_dir("quant_nockpt");
        assert!(matches!(det.save(dir.join("model.json")), Err(CheckpointError::Quantized)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
