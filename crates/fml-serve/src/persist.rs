//! Versioned model persistence for [`Trained`] fits.
//!
//! The workspace has no serialization dependency (the build environment
//! has no registry access), so persistence is implemented as an explicit,
//! versioned binary codec with the properties a serving system actually
//! needs:
//!
//! * **Exact round-trips** — every `f64` is stored as its IEEE-754 bit
//!   pattern, so a saved model scores *bit-identically* after loading (the
//!   persistence tests pin this with `f64::to_bits`).
//! * **Versioning** — the header carries [`FORMAT_VERSION`]; readers reject
//!   unknown versions with [`PersistError::UnsupportedVersion`] naming both
//!   the found and the supported version instead of misparsing.
//! * **Corruption detection** — the payload is guarded by an FNV-1a checksum;
//!   bit flips and truncations surface as [`PersistError::Corrupt`] /
//!   [`PersistError::Io`], never as a silently wrong model.
//! * **Family tagging** — a `Trained<GmmFit>` file refuses to load as a
//!   `Trained<NnFit>` ([`PersistError::WrongFamily`]).
//!
//! ## Layout (version 1)
//!
//! ```text
//! magic   b"FMLM"                      4 bytes
//! version u16 LE                       2 bytes
//! family  u8 (1 = GMM, 2 = NN)         1 byte
//! len     u64 LE payload byte count    8 bytes
//! payload family-specific fields       len bytes
//! check   u64 LE FNV-1a64(payload)     8 bytes
//! ```
//!
//! The payload stores the full [`Trained`] value: the model parameters, the
//! fit metadata (objective trace, iteration counts, tuple counts, wall
//! times) and the shared accounting ([`Algorithm`], [`IoSnapshot`]).

use fml_core::{Algorithm, Trained};
use fml_gmm::{GmmFit, GmmModel};
use fml_linalg::{Matrix, Vector};
use fml_nn::{Activation, DenseLayer, Mlp, NnFit};
use fml_store::IoSnapshot;
use std::path::Path;
use std::time::Duration;

/// File magic: "FML Model".
pub const MAGIC: [u8; 4] = *b"FMLM";

/// The on-disk format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Model family tag stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// Gaussian mixture model ([`Trained<GmmFit>`]).
    Gmm,
    /// Feed-forward neural network ([`Trained<NnFit>`]).
    Nn,
}

impl ModelFamily {
    fn tag(self) -> u8 {
        match self {
            ModelFamily::Gmm => 1,
            ModelFamily::Nn => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(ModelFamily::Gmm),
            2 => Some(ModelFamily::Nn),
            _ => None,
        }
    }

    /// Human-readable family name, used in error messages.
    pub fn label(self) -> &'static str {
        match self {
            ModelFamily::Gmm => "gmm",
            ModelFamily::Nn => "nn",
        }
    }
}

/// Everything that can go wrong saving or loading a model file.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a model file at all.
    BadMagic([u8; 4]),
    /// The file's format version is not the one this build supports.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build reads ([`FORMAT_VERSION`]).
        supported: u16,
    },
    /// The file holds a different model family than requested.
    WrongFamily {
        /// Family tag found in the header.
        found: &'static str,
        /// Family the caller asked to load.
        expected: &'static str,
    },
    /// The payload is damaged: checksum mismatch, truncation, an invalid
    /// enum tag, or inconsistent dimensions.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model file I/O error: {e}"),
            PersistError::BadMagic(m) => {
                write!(f, "not a model file: bad magic {m:?} (expected {MAGIC:?})")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported model format version {found} (this build supports version {supported})"
            ),
            PersistError::WrongFamily { found, expected } => write!(
                f,
                "model family mismatch: file holds a {found} model, expected {expected}"
            ),
            PersistError::Corrupt(why) => write!(f, "corrupt model file: {why}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// `rows * cols` with overflow reported as corruption — decoded dimensions
/// are attacker-/corruption-controlled, so the product must never wrap into
/// a plausible small element count.
fn checked_area(rows: usize, cols: usize, what: &str) -> Result<usize, PersistError> {
    rows.checked_mul(cols)
        .ok_or_else(|| PersistError::Corrupt(format!("{what}: dimensions {rows}x{cols} overflow")))
}

/// FNV-1a 64-bit checksum over the payload bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Primitive encoders / decoders
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_secs());
    put_u32(out, d.subsec_nanos());
}

fn put_io(out: &mut Vec<u8>, io: &IoSnapshot) {
    put_u64(out, io.pages_read);
    put_u64(out, io.pages_written);
    put_u64(out, io.tuples_read);
    put_u64(out, io.tuples_written);
    put_u64(out, io.fields_read);
    put_u64(out, io.index_probes);
}

fn put_algorithm(out: &mut Vec<u8>, a: Algorithm) {
    put_u8(
        out,
        match a {
            Algorithm::Materialized => 0,
            Algorithm::Streaming => 1,
            Algorithm::Factorized => 2,
        },
    );
}

/// Bounds-checked cursor over the payload bytes; every read error names the
/// field it was decoding.  Public because [`ModelStore::decode_payload`]
/// takes it — third-party `Trained<F>` families can implement the same
/// container format.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(truncated(what)),
        }
    }

    /// Reads one fixed-width field: every integer, float and magic field
    /// goes through this checked `[u8; N]` read.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], PersistError> {
        self.take(N, what)?.try_into().map_err(|_| truncated(what))
    }

    fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn usize(&mut self, what: &str) -> Result<usize, PersistError> {
        let v = self.u64(what)?;
        usize::try_from(v)
            .map_err(|_| PersistError::Corrupt(format!("{what}: length {v} overflows usize")))
    }

    /// A length prefix that must be satisfiable by the remaining bytes
    /// (each element is at least one byte), preventing huge bogus lengths
    /// from turning into unbounded allocations.
    fn len(&mut self, what: &str) -> Result<usize, PersistError> {
        let n = self.usize(what)?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(PersistError::Corrupt(format!(
                "{what}: length {n} exceeds the remaining payload"
            )));
        }
        Ok(n)
    }

    fn f64s(&mut self, what: &str) -> Result<Vec<f64>, PersistError> {
        let n = self.len(what)?;
        (0..n)
            .map(|_| Ok(f64::from_bits(self.u64(what)?)))
            .collect()
    }

    fn f64s_exact(&mut self, n: usize, what: &str) -> Result<Vec<f64>, PersistError> {
        let vs = self.f64s(what)?;
        if vs.len() != n {
            return Err(PersistError::Corrupt(format!(
                "{what}: expected {n} values, found {}",
                vs.len()
            )));
        }
        Ok(vs)
    }

    fn duration(&mut self, what: &str) -> Result<Duration, PersistError> {
        let secs = self.u64(what)?;
        let nanos = self.u32(what)?;
        if nanos >= 1_000_000_000 {
            return Err(PersistError::Corrupt(format!(
                "{what}: subsecond nanos {nanos} out of range"
            )));
        }
        Ok(Duration::new(secs, nanos))
    }

    fn io(&mut self) -> Result<IoSnapshot, PersistError> {
        Ok(IoSnapshot {
            pages_read: self.u64("io.pages_read")?,
            pages_written: self.u64("io.pages_written")?,
            tuples_read: self.u64("io.tuples_read")?,
            tuples_written: self.u64("io.tuples_written")?,
            fields_read: self.u64("io.fields_read")?,
            index_probes: self.u64("io.index_probes")?,
        })
    }

    fn algorithm(&mut self) -> Result<Algorithm, PersistError> {
        match self.u8("algorithm")? {
            0 => Ok(Algorithm::Materialized),
            1 => Ok(Algorithm::Streaming),
            2 => Ok(Algorithm::Factorized),
            t => Err(PersistError::Corrupt(format!("unknown algorithm tag {t}"))),
        }
    }

    fn finish(self, what: &str) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn truncated(what: &str) -> PersistError {
    PersistError::Corrupt(format!("payload truncated while reading {what}"))
}

// ---------------------------------------------------------------------------
// The public trait
// ---------------------------------------------------------------------------

/// Save/load support for trained models, implemented by [`Trained<GmmFit>`]
/// and [`Trained<NnFit>`].
///
/// ```no_run
/// use fml_serve::ModelStore;
/// # let trained: fml_core::TrainedGmm = unimplemented!();
/// trained.save("segmentation.fml").unwrap();
/// let back = fml_core::TrainedGmm::load("segmentation.fml").unwrap();
/// assert_eq!(trained.fit.model.max_param_diff(&back.fit.model), 0.0);
/// ```
pub trait ModelStore: Sized {
    /// The family tag written to (and expected in) the file header.
    const FAMILY: ModelFamily;

    /// Encodes the family-specific payload.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decodes the family-specific payload.
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, PersistError>;

    /// Serializes into the versioned container format.
    fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        let mut out = Vec::with_capacity(payload.len() + 23);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(Self::FAMILY.tag());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let check = fnv1a64(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    /// Deserializes from the versioned container format, verifying magic,
    /// version, family tag and checksum before touching the payload.
    fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut header = Reader::new(bytes);
        let magic = header.array("magic")?;
        if magic != MAGIC {
            return Err(PersistError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(header.array("version")?);
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let family_tag = header.u8("family")?;
        let family = ModelFamily::from_tag(family_tag)
            .ok_or_else(|| PersistError::Corrupt(format!("unknown family tag {family_tag}")))?;
        if family != Self::FAMILY {
            return Err(PersistError::WrongFamily {
                found: family.label(),
                expected: Self::FAMILY.label(),
            });
        }
        let payload_len = header.len("payload length")?;
        let payload = header.take(payload_len, "payload")?;
        let stored_check = header.u64("checksum")?;
        header.finish("the checksum")?;
        if fnv1a64(payload) != stored_check {
            return Err(PersistError::Corrupt(
                "payload checksum mismatch (the file was modified or damaged)".into(),
            ));
        }
        let mut r = Reader::new(payload);
        let value = Self::decode_payload(&mut r)?;
        r.finish("the payload")?;
        Ok(value)
    }

    /// Saves to a file.
    fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads from a file.
    fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

fn encode_trained_meta<F>(t: &Trained<F>, out: &mut Vec<u8>) {
    put_algorithm(out, t.algorithm);
    put_io(out, &t.io);
    put_duration(out, t.elapsed);
}

struct TrainedMeta {
    algorithm: Algorithm,
    io: IoSnapshot,
    elapsed: Duration,
}

fn decode_trained_meta(r: &mut Reader<'_>) -> Result<TrainedMeta, PersistError> {
    Ok(TrainedMeta {
        algorithm: r.algorithm()?,
        io: r.io()?,
        elapsed: r.duration("trained.elapsed")?,
    })
}

impl ModelStore for Trained<GmmFit> {
    const FAMILY: ModelFamily = ModelFamily::Gmm;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        encode_trained_meta(self, out);
        let model = &self.fit.model;
        put_usize(out, model.k());
        put_usize(out, model.dim());
        put_f64s(out, &model.weights);
        for mean in &model.means {
            put_f64s(out, mean.as_slice());
        }
        for cov in &model.covariances {
            put_f64s(out, cov.as_slice());
        }
        put_usize(out, self.fit.iterations);
        put_f64s(out, &self.fit.log_likelihood);
        put_u64(out, self.fit.n_tuples);
        put_duration(out, self.fit.elapsed);
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let meta = decode_trained_meta(r)?;
        let k = r.usize("gmm.k")?;
        let d = r.usize("gmm.dim")?;
        if k == 0 || d == 0 {
            return Err(PersistError::Corrupt(format!(
                "gmm shape k={k}, d={d} must be positive"
            )));
        }
        let dd = checked_area(d, d, "gmm.cov")?;
        let weights = r.f64s_exact(k, "gmm.weights")?;
        let means = (0..k)
            .map(|_| Ok(Vector::from_slice(&r.f64s_exact(d, "gmm.mean")?)))
            .collect::<Result<Vec<_>, PersistError>>()?;
        let covariances = (0..k)
            .map(|_| Ok(Matrix::from_vec(d, d, r.f64s_exact(dd, "gmm.cov")?)))
            .collect::<Result<Vec<_>, PersistError>>()?;
        let model = GmmModel::new(weights, means, covariances);
        let iterations = r.usize("gmm.iterations")?;
        let log_likelihood = r.f64s("gmm.log_likelihood")?;
        let n_tuples = r.u64("gmm.n_tuples")?;
        let elapsed = r.duration("gmm.elapsed")?;
        Ok(Trained {
            fit: GmmFit {
                model,
                iterations,
                log_likelihood,
                n_tuples,
                elapsed,
            },
            io: meta.io,
            algorithm: meta.algorithm,
            elapsed: meta.elapsed,
        })
    }
}

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Sigmoid => 0,
        Activation::Tanh => 1,
        Activation::Relu => 2,
        Activation::Identity => 3,
    }
}

fn activation_from_tag(tag: u8) -> Result<Activation, PersistError> {
    match tag {
        0 => Ok(Activation::Sigmoid),
        1 => Ok(Activation::Tanh),
        2 => Ok(Activation::Relu),
        3 => Ok(Activation::Identity),
        t => Err(PersistError::Corrupt(format!("unknown activation tag {t}"))),
    }
}

impl ModelStore for Trained<NnFit> {
    const FAMILY: ModelFamily = ModelFamily::Nn;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        encode_trained_meta(self, out);
        let layers = self.fit.model.layers();
        put_usize(out, layers.len());
        for layer in layers {
            put_usize(out, layer.out_dim());
            put_usize(out, layer.in_dim());
            put_u8(out, activation_tag(layer.activation));
            put_f64s(out, layer.weights.as_slice());
            put_f64s(out, &layer.bias);
        }
        put_usize(out, self.fit.epochs);
        put_f64s(out, &self.fit.loss_trace);
        put_u64(out, self.fit.n_tuples);
        put_duration(out, self.fit.elapsed);
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let meta = decode_trained_meta(r)?;
        let num_layers = r.len("nn.layers")?;
        if num_layers == 0 {
            return Err(PersistError::Corrupt(
                "network must have at least one layer".into(),
            ));
        }
        let mut layers = Vec::with_capacity(num_layers);
        let mut prev_out: Option<usize> = None;
        for i in 0..num_layers {
            let out_dim = r.usize("layer.out_dim")?;
            let in_dim = r.usize("layer.in_dim")?;
            if out_dim == 0 || in_dim == 0 {
                return Err(PersistError::Corrupt(format!(
                    "layer shape {out_dim}x{in_dim} must be positive"
                )));
            }
            // The layer chain must be width-consistent, or the first forward
            // pass would panic inside a kernel instead of failing the load.
            if let Some(prev_out) = prev_out {
                if in_dim != prev_out {
                    return Err(PersistError::Corrupt(format!(
                        "layer {i}: in_dim {in_dim} does not match the previous \
                         layer's out_dim {prev_out}"
                    )));
                }
            }
            prev_out = Some(out_dim);
            let activation = activation_from_tag(r.u8("layer.activation")?)?;
            let area = checked_area(out_dim, in_dim, "layer.weights")?;
            let weights = Matrix::from_vec(out_dim, in_dim, r.f64s_exact(area, "layer.weights")?);
            let bias = r.f64s_exact(out_dim, "layer.bias")?;
            layers.push(DenseLayer::new(weights, bias, activation));
        }
        let model = Mlp::from_layers(layers);
        let epochs = r.usize("nn.epochs")?;
        let loss_trace = r.f64s("nn.loss_trace")?;
        let n_tuples = r.u64("nn.n_tuples")?;
        let elapsed = r.duration("nn.elapsed")?;
        Ok(Trained {
            fit: NnFit {
                model,
                epochs,
                loss_trace,
                n_tuples,
                elapsed,
            },
            io: meta.io,
            algorithm: meta.algorithm,
            elapsed: meta.elapsed,
        })
    }
}
