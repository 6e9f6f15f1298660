//! Seeded inputs: jittered RC-mesh netlists and the job requests that
//! carry them.
//!
//! The generator is the benchmark's own (SplitMix64 plus a SPICE
//! writer), so a change to the repository can never change what the
//! benchmark feeds it. Every element value is drawn from the seed, so
//! each job reduces a distinct pencil with the same sparsity pattern
//! and size.

use std::fmt::Write as _;

use serve::JobRequest;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the stream named by `parts` (seed, workload,
    /// job index, ...), so every stream is independent of how many
    /// values other streams drew.
    pub fn stream(parts: &[u64]) -> Self {
        let mut r = Rng(0x5eed_0fbe_4c00_0001);
        for &p in parts {
            // Feed each part through the full output mix, so distinct
            // part lists cannot land on the same state.
            r.0 ^= p;
            r.0 = r.next_u64();
        }
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A stable 64-bit id for a workload name (FNV-1a), used to give each
/// workload its own input streams.
pub fn name_id(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Seed of the reference pencils: the checked models whose in-band
/// error is reported are the same in every run, so `in_band_err`
/// moves only when the program's accuracy does.
pub const REFERENCE_SEED: u64 = 0x00c0_ffee;

/// Shape of one mesh job: the grid, its ports, and the reduction asked
/// of it.
#[derive(Debug, Clone, Copy)]
pub struct MeshShape {
    pub rows: usize,
    pub cols: usize,
    pub ports: usize,
    pub method: &'static str,
    pub samples: u64,
    pub order: u64,
}

/// Band edge in rad/s: the unit RC mesh's time constants are ~1 s.
pub const OMEGA_MAX: f64 = 10.0;

/// Relative spread of every element value around its nominal value.
const JITTER: f64 = 0.2;

/// SPICE text for a `rows × cols` RC mesh whose element values are
/// drawn from `rng`: unit resistors and capacitors and 2 Ω port
/// terminations, each scaled by `1 ± JITTER/2`. `title` becomes the
/// first (comment) line.
pub fn mesh_netlist(shape: &MeshShape, rng: &mut Rng, title: &str) -> String {
    let (rows, cols) = (shape.rows, shape.cols);
    let mut jit = |base: f64| base * (1.0 + JITTER * (rng.unit() - 0.5));
    let node = |i: usize, j: usize| i * cols + j + 1;
    let mut text = String::with_capacity(rows * cols * 48);
    let _ = writeln!(text, "* {title}");
    for i in 0..rows {
        for j in 0..cols {
            let n = node(i, j);
            let _ = writeln!(text, "C{n} {n} 0 {}", jit(1.0));
        }
    }
    let mut nr = 0usize;
    for i in 0..rows {
        for j in 0..cols {
            let n = node(i, j);
            if j + 1 < cols {
                nr += 1;
                let _ = writeln!(text, "RH{nr} {n} {} {}", node(i, j + 1), jit(1.0));
            }
            if i + 1 < rows {
                nr += 1;
                let _ = writeln!(text, "RV{nr} {n} {} {}", node(i + 1, j), jit(1.0));
            }
        }
    }
    let total = rows * cols;
    for k in 0..shape.ports {
        let n = k * total / shape.ports + 1;
        let _ = writeln!(text, "RG{k} {n} 0 {}", jit(2.0));
        let _ = writeln!(text, "PORT {n}");
    }
    text.push_str(".END\n");
    text
}

/// The untraced job request for `netlist` under `shape`.
pub fn request(shape: &MeshShape, netlist: String) -> JobRequest {
    JobRequest {
        method: shape.method.to_string(),
        netlist,
        omega_max: OMEGA_MAX,
        bands: vec![],
        samples: shape.samples,
        tol: 1e-8,
        order: Some(shape.order),
        greedy_tol: 1e-3,
        greedy_max_shifts: None,
        budget_lu: None,
        budget_svd: None,
        budget_bytes: None,
        trace: false,
    }
}
