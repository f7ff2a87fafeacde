//! Everything the workloads feed the program: the 34 artifacts, the
//! seeded request sequences and sweep batches, and the pinned digests
//! their outputs are checked against.

use std::collections::BTreeMap;
use ucore_bench::Target;
use ucore_calibrate::WorkloadColumn;
use ucore_core::{Budgets, ParallelFraction};
use ucore_project::{DesignId, Outcome, ProjectionEngine, SweepPoint};

/// Concurrent connections of the `serve-warm` closed loop.
pub const CONNECTIONS: u64 = 2;

/// Points per `explore-durable` batch.
pub const BATCH_POINTS: usize = 512;

/// `explore-durable` batches in the pool every seed draws from, each
/// with a pinned outcome digest. A power of two, so that an odd stride
/// walks the whole pool before it repeats a batch.
pub const POOL_BATCHES: u64 = 4096;

/// The generator seed of the pool's batches.
const POOL_SEED: u64 = 1;

/// SplitMix64: small, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(Fnv::default().u64(seed).u64(stream).0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a, 64 bit: a digest that never changes with the toolchain.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn digest(bytes: &[u8]) -> String {
    Fnv::default().bytes(bytes).hex()
}

/// One artifact: its HTTP path (which doubles as its name) and its
/// render target.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub path: String,
    pub target: Target,
}

/// The 34 artifacts of a full reproduction: tables 1-6, figures 2-11,
/// scenarios 1-6, and JSON and CSV for figures 6-11.
pub fn artifacts() -> Vec<Artifact> {
    let mut out = Vec::with_capacity(34);
    let mut push = |path: String, target: Target| out.push(Artifact { path, target });
    for n in 1..=6 {
        push(format!("/table/{n}"), Target::Table(n.to_string()));
    }
    for n in 2..=11 {
        push(format!("/figure/{n}"), Target::Figure(n.to_string()));
    }
    for n in 1..=6 {
        push(format!("/scenario/{n}"), Target::Scenario(n.to_string()));
    }
    for n in 6..=11 {
        push(
            format!("/json/figure-{n}"),
            Target::Json(format!("figure-{n}")),
        );
    }
    for n in 6..=11 {
        push(
            format!("/csv/figure-{n}"),
            Target::Csv(format!("figure-{n}")),
        );
    }
    out
}

/// Digests pinned at the commit that introduced the benchmark.
#[derive(Debug, Default)]
pub struct Pinned {
    /// Artifact path -> digest of its bytes.
    pub artifacts: BTreeMap<String, String>,
    /// `explore-durable` pool batch -> digest of its outcomes.
    pub explore: BTreeMap<u64, String>,
}

impl Pinned {
    pub fn load() -> Self {
        let mut pinned = Pinned::default();
        for line in include_str!("../digests.txt").lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["artifact", path, hex] => {
                    pinned.artifacts.insert(path.to_string(), hex.to_string());
                }
                ["explore", batch, hex] => {
                    if let Ok(batch) = batch.parse() {
                        pinned.explore.insert(batch, hex.to_string());
                    }
                }
                _ => {}
            }
        }
        pinned
    }

    /// Checks one artifact's bytes against its pinned digest.
    pub fn check_artifact(&self, path: &str, body: &[u8]) -> Result<(), String> {
        let got = digest(body);
        match self.artifacts.get(path) {
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!("{path}: digest {got} != pinned {want}")),
            None => Err(format!("{path}: no pinned digest")),
        }
    }

    /// Checks a pool batch's outcome digest against its pin.
    pub fn check_explore(&self, pool: u64, outcomes_hex: &str) -> Result<(), String> {
        match self.explore.get(&pool) {
            Some(want) if want == outcomes_hex => Ok(()),
            Some(want) => Err(format!(
                "pool batch {pool}: outcome digest {outcomes_hex} != pinned {want}"
            )),
            None => Err(format!("pool batch {pool}: no pinned digest")),
        }
    }
}

/// The artifact indices one `serve-warm` connection requests, in order.
#[derive(Debug, Clone)]
pub struct RequestStream(Rng);

impl RequestStream {
    pub fn new(seed: u64, connection: u64) -> Self {
        RequestStream(Rng::new(seed, 1_000 + connection))
    }

    pub fn next_index(&mut self) -> usize {
        self.0.below(34)
    }
}

/// Digest of the first `n` requests of each of `connections` streams.
pub fn request_sequence_digest(seed: u64, connections: u64, n: usize) -> String {
    let mut h = Fnv::default();
    for c in 0..connections {
        let mut stream = RequestStream::new(seed, c);
        for _ in 0..n {
            h.u64(stream.next_index() as u64);
        }
    }
    h.hex()
}

/// The pool batch that is a seed's `k`-th `explore-durable` batch. Each
/// seed walks the pool from its own offset with its own odd stride, so a
/// run meets no batch twice before it has met all [`POOL_BATCHES`], and
/// two seeds meet them in different orders.
pub fn pool_index(seed: u64, k: u64) -> u64 {
    let mut rng = Rng::new(seed, 2_000);
    let offset = rng.next_u64();
    let stride = rng.next_u64() | 1;
    // 2^64 is a multiple of the pool size, so wrapping keeps the walk.
    offset.wrapping_add(k.wrapping_mul(stride)) % POOL_BATCHES
}

/// Generates the pool's `explore-durable` batches: random design, column
/// and node, budgets scaled by 0.5-2 per dimension, `f` in
/// `[0.5, 0.9999]`.
pub struct BatchGen<'a> {
    engine: &'a ProjectionEngine,
    designs: Vec<(WorkloadColumn, Vec<DesignId>)>,
}

impl<'a> BatchGen<'a> {
    pub fn new(engine: &'a ProjectionEngine) -> Self {
        let designs = WorkloadColumn::ALL
            .iter()
            .map(|&column| (column, DesignId::for_column(engine.table5(), column)))
            .collect();
        BatchGen { engine, designs }
    }

    /// Pool batch `pool`.
    pub fn batch(&self, pool: u64) -> Vec<SweepPoint> {
        let mut rng = Rng::new(POOL_SEED, pool);
        let nodes = self.engine.scenario().roadmap().nodes();
        (0..BATCH_POINTS)
            .map(|_| {
                let (column, designs) = &self.designs[rng.below(self.designs.len())];
                let design = designs[rng.below(designs.len())];
                let node = nodes[rng.below(nodes.len())];
                let exempt = ProjectionEngine::bandwidth_exempt(design, *column);
                let base = self
                    .engine
                    .budgets(&node, *column, exempt)
                    .expect("the shipped roadmap anchors every column");
                let budgets = Budgets::new(
                    base.area() * rng.range(0.5, 2.0),
                    base.power() * rng.range(0.5, 2.0),
                    base.bandwidth() * rng.range(0.5, 2.0),
                )
                .expect("scaled budgets stay positive and finite");
                let f = ParallelFraction::new(rng.range(0.5, 0.9999))
                    .expect("f in [0.5, 0.9999] is a valid parallel fraction");
                SweepPoint {
                    design,
                    column: *column,
                    node,
                    budgets,
                    f,
                }
            })
            .collect()
    }

    /// Digest of the points of a seed's first `batches` batches (the
    /// seed check).
    pub fn inputs_digest(&self, seed: u64, batches: u64) -> String {
        let mut h = Fnv::default();
        for k in 0..batches {
            for p in self.batch(pool_index(seed, k)) {
                h.u64(ucore_project::point_fingerprint(&p));
            }
        }
        h.hex()
    }
}

/// Checks that the seed alone names the inputs: the same seed gives the
/// same request sequences and sweep batches (compared by digest), the
/// next seed different ones.
pub fn seed_check(engine: &ProjectionEngine, seed: u64) -> Result<(), String> {
    let inputs = |s: u64| {
        (
            request_sequence_digest(s, CONNECTIONS, 1024),
            BatchGen::new(engine).inputs_digest(s, 2),
        )
    };
    let (a, b, next) = (inputs(seed), inputs(seed), inputs(seed.wrapping_add(1)));
    eprintln!(
        "perfbench: seed {seed} inputs: requests {}, batches {}",
        a.0, a.1
    );
    if a != b {
        return Err(format!("seed {seed} generated different inputs twice"));
    }
    if a.0 == next.0 || a.1 == next.1 {
        return Err(format!(
            "seeds {seed} and {} generated the same inputs",
            seed.wrapping_add(1)
        ));
    }
    Ok(())
}

/// Digest of a batch's outcomes, bit for bit.
pub fn outcomes_digest<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> String {
    let mut h = Fnv::default();
    for outcome in outcomes {
        match outcome {
            Outcome::Feasible(p) => {
                h.bytes(b"F")
                    .bytes(format!("{:?}{:?}", p.node, p.limiter).as_bytes());
                for x in [p.speedup, p.r, p.n, p.energy] {
                    h.u64(x.to_bits());
                }
            }
            Outcome::Infeasible => {
                h.bytes(b"I");
            }
            Outcome::Failed { panic_msg } => {
                h.bytes(b"X").bytes(panic_msg.as_bytes());
            }
        }
    }
    h.hex()
}
