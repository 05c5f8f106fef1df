//! Benchmark of the BRICS engine on 100 K-vertex synthetic graphs.
//!
//! ```text
//! cargo run --release --offline --manifest-path farbench/Cargo.toml -- \
//!     --workload social-100k --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` times the four user-facing operations of
//! `brics::PreparedGraph` (build, `sample`, `cumulative`, `topk`) with no
//! recorder attached and prints the end-to-end metrics; `--trace 1` is the
//! separate traced run that prints the per-layer metrics. Every answer is
//! checked. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for the
//! workloads and what each metric means.

mod alloc;
mod check;
mod layers;

use brics::{
    CentralityError, ExecutionContext, FarnessEstimate, PreparedGraph, ReductionConfig, SampleSize,
};
use brics_graph::generators::{ClassParams, GraphClass};
use brics_graph::CsrGraph;
use check::Reference;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

/// Target vertex count of every workload graph.
const NODES: usize = 100_000;
/// Sampling rate of every query.
const RATE: f64 = 0.02;
/// `k` of the top-k query.
const K: usize = 10;
/// Top-k verification on the 100 K road graph takes over two minutes (its
/// BFS-cut bound almost never fires at diameter ~600), so the road
/// workload's top-k step runs on a road graph of this size instead.
const ROAD_TOPK_NODES: usize = 10_000;
/// Seed of every workload graph. The graph is the workload and stays the
/// same in every run; `--seed` draws the query sources and the reference
/// subset. On a graph drawn from `--seed`, top-k time varies by up to 40 %
/// from one generated web graph to the next (the BFS-cut bound fires at
/// different depths), and that variance would swamp the timing noise the
/// repeated seeds are meant to show.
const GRAPH_SEED: u64 = 1;
/// Mixed into the seed so the reference subset and the query sources are
/// drawn from different streams.
const REFERENCE_SALT: u64 = 0x5eed_5eed_0000_0001;
const QUERY_SALT: u64 = 0x5eed_5eed_0000_0002;
/// Quality floor of the answer checks. The estimators reach 0.97-0.999 at
/// `RATE` on every workload; unscaled partial sums would score ~0.02.
const QUALITY_FLOOR: f64 = 0.9;

/// One benchmark workload: a generated graph class at `NODES` vertices.
#[derive(Clone, Copy, Debug)]
struct Workload {
    name: &'static str,
    class: GraphClass,
    /// Vertex count of the graph the top-k step runs on.
    topk_nodes: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "social-100k",
        class: GraphClass::Social,
        topk_nodes: NODES,
    },
    Workload {
        name: "web-100k",
        class: GraphClass::Web,
        topk_nodes: NODES,
    },
    Workload {
        name: "road-100k",
        class: GraphClass::Road,
        topk_nodes: ROAD_TOPK_NODES,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The generated inputs of one run: the workload's fixed graph, and the
/// reference subset and query seed drawn from the run's seed.
struct Inputs {
    graph: CsrGraph,
    reference: Reference,
    /// The top-k step's own graph and reference, when it is not `graph`.
    topk: Option<(CsrGraph, Reference)>,
    /// Seed of every query's source sample.
    query_seed: u64,
}

impl Inputs {
    fn generate(w: Workload, seed: u64) -> Self {
        let graph = w.class.generate(ClassParams::new(NODES, GRAPH_SEED));
        let reference = Reference::new(&graph, seed ^ REFERENCE_SALT);
        let topk = (w.topk_nodes != NODES).then(|| {
            let g = w.class.generate(ClassParams::new(w.topk_nodes, GRAPH_SEED));
            let r = Reference::new(&g, seed ^ REFERENCE_SALT);
            (g, r)
        });
        Self {
            graph,
            reference,
            topk,
            query_seed: seed ^ QUERY_SALT,
        }
    }

    fn topk_target(&self) -> (&CsrGraph, &Reference) {
        match &self.topk {
            Some((g, r)) => (g, r),
            None => (&self.graph, &self.reference),
        }
    }
}

/// The three timed queries, in round-robin order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Query {
    Random,
    Cumulative,
    Topk,
}

const QUERIES: [Query; 3] = [Query::Random, Query::Cumulative, Query::Topk];

impl Query {
    fn name(self) -> &'static str {
        match self {
            Query::Random => "random",
            Query::Cumulative => "cumulative",
            Query::Topk => "topk",
        }
    }

    /// The end-to-end metric of the query's wall time.
    fn time_metric(self) -> &'static str {
        match self {
            Query::Random => "random_query_s",
            Query::Cumulative => "cumulative_query_s",
            Query::Topk => "topk_s",
        }
    }
}

/// Wall time and heap growth of one call.
struct Measured<T> {
    value: T,
    secs: f64,
    peak_bytes: u64,
}

impl<T> Measured<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Measured<U> {
        Measured {
            value: f(self.value),
            secs: self.secs,
            peak_bytes: self.peak_bytes,
        }
    }
}

fn measure<T>(f: impl FnOnce() -> T) -> Measured<T> {
    let base = alloc::mark();
    let start = Instant::now();
    let value = f();
    let secs = start.elapsed().as_secs_f64();
    Measured {
        value,
        secs,
        peak_bytes: alloc::peak_above(base),
    }
}

fn build<'g, R: brics::Recorder>(
    g: &'g CsrGraph,
    ctx: &ExecutionContext<'_, R>,
) -> PreparedGraph<'g> {
    PreparedGraph::build(g, &ReductionConfig::all(), ctx).expect("benchmark graphs are connected")
}

/// Outcome of one checked query: the quality for estimates, `None` for
/// top-k; `Err` if a check failed.
type Checked = Result<Option<f64>, String>;

/// Runs `q` against `p` (or, for top-k, against `topk_p` when the workload
/// has a separate top-k graph) and checks the answer.
fn run_query<'a, R: brics::Recorder>(
    q: Query,
    inputs: &'a Inputs,
    p: &PreparedGraph<'a>,
    topk_p: Option<&PreparedGraph<'a>>,
    ctx: &ExecutionContext<'_, R>,
) -> Measured<Checked> {
    let (seed, rate) = (inputs.query_seed, SampleSize::Fraction(RATE));
    let (g, reference) = (&inputs.graph, &inputs.reference);
    let estimate = |est: Result<FarnessEstimate, CentralityError>| {
        est.map_err(|e| e.to_string())
            .and_then(|est| check::estimate(g, reference, &est, QUALITY_FLOOR).map(Some))
    };
    match q {
        Query::Random => measure(|| p.sample(rate, seed, ctx)).map(estimate),
        Query::Cumulative => measure(|| p.cumulative(rate, seed, ctx)).map(estimate),
        Query::Topk => {
            let p = topk_p.unwrap_or(p);
            let (g, reference) = inputs.topk_target();
            measure(|| p.topk(K, rate, seed, ctx)).map(|t| {
                t.map_err(|e| e.to_string())
                    .and_then(|t| check::topk(g, reference, K, &t).map(|()| None))
            })
        }
    }
}

/// Samples per metric name, plus the operation tally.
#[derive(Default)]
struct Tally {
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// First quality seen per query: repeats of a query with one seed must
    /// give bit-identical answers.
    qualities: BTreeMap<&'static str, f64>,
}

impl Tally {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// Counts one query and checks its answer. An estimate must also repeat
    /// the quality of the run's first estimate of its kind: one seed, one
    /// answer. Returns the checked answer.
    fn query(&mut self, q: Query, checked: Checked) -> Checked {
        let checked = checked.and_then(|quality| {
            let Some(x) = quality else { return Ok(None) };
            let first = *self.qualities.entry(q.name()).or_insert(x);
            if first.to_bits() == x.to_bits() {
                Ok(Some(x))
            } else {
                Err(format!(
                    "quality {x} differs from {first} with the same seed"
                ))
            }
        });
        self.attempted += 1;
        if let Err(e) = &checked {
            self.failed += 1;
            eprintln!("farbench: {} failed its check: {e}", q.name());
        }
        checked
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// Runs rounds until the next one would end past `seconds` after `start`,
/// but at least `min` rounds. Returns the number of rounds run.
fn rounds(start: Instant, seconds: f64, min: usize, mut round: impl FnMut(usize)) -> usize {
    let mut last = 0.0;
    let mut n = 0;
    loop {
        let t = Instant::now();
        round(n);
        last = f64::max(last, t.elapsed().as_secs_f64());
        n += 1;
        if n >= min && start.elapsed().as_secs_f64() + last > seconds {
            return n;
        }
    }
}

/// The end-to-end run: no recorder attached anywhere.
fn run_untraced(inputs: &Inputs, seconds: f64) -> Tally {
    let ctx = ExecutionContext::new();
    let mut t = Tally::default();
    let topk_p = inputs.topk.as_ref().map(|(g, _)| build(g, &ctx));
    let start = Instant::now();
    // The warm-up sample, discarded: one build brings the heap to the
    // graph's working size. The queries need none; the first call of each
    // times like the later ones (README, "How a run goes").
    drop(build(&inputs.graph, &ctx));
    t.attempted += 1;
    let measured = rounds(start, seconds, 1, |_| {
        for q in QUERIES {
            // A fresh build before every query: set-up is the shortest
            // and least steady step, so it gets the most samples.
            let m = measure(|| build(&inputs.graph, &ctx));
            t.attempted += 1;
            t.push("setup_s", m.secs);
            t.push("setup_peak_mb", m.peak_bytes as f64 / MB);
            let p = m.value;
            let r = run_query(q, inputs, &p, topk_p.as_ref(), &ctx);
            if let Ok(quality) = t.query(q, r.value) {
                t.push(q.time_metric(), r.secs);
                t.push(format!("{}_peak_mb", q.name()), r.peak_bytes as f64 / MB);
                if let Some(x) = quality {
                    t.push(format!("{}_quality", q.name()), x);
                }
            }
        }
    });
    eprintln!("farbench: {measured} measured rounds after one warm-up build");
    t
}

/// End-to-end metrics in report order, with their units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("setup_peak_mb", "MB"),
    ("random_query_s", "s"),
    ("cumulative_query_s", "s"),
    ("topk_s", "s"),
    ("random_quality", "ratio"),
    ("cumulative_quality", "ratio"),
    ("random_peak_mb", "MB"),
    ("cumulative_peak_mb", "MB"),
    ("topk_peak_mb", "MB"),
];

/// A fixed integer loop in the benchmark's own code: the same work on every
/// run, so its time shows how fast the machine is at the moment. The median
/// of five timings of a ~0.1 s loop, so one descheduling does not show.
fn calibrate() -> f64 {
    let once = || {
        let start = Instant::now();
        let mut x = std::hint::black_box(0x1234_5678_9abc_def0_u64);
        for i in 0..40_000_000u64 {
            x = (x ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64()
    };
    median(&[once(), once(), once(), once(), once()])
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("farbench: {e}");
            eprintln!(
                "usage: farbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon stand-in's ThreadPool::build never fails");
    let (correct, attempted, failed, metrics) = pool.install(|| {
        let calib_start = calibrate();
        let inputs = Inputs::generate(args.workload, args.seed);
        println!(
            "workload {} seed {}: {} vertices, {} edges; top-k graph {} vertices; {} threads",
            args.workload.name,
            args.seed,
            inputs.graph.num_nodes(),
            inputs.graph.num_edges(),
            inputs.topk_target().0.num_nodes(),
            threads,
        );
        let (mut t, names) = if args.trace {
            let label = format!("{}-{}", args.workload.name, args.seed);
            (
                layers::run(&inputs, args.seconds, threads, &label),
                layers::PER_LAYER.as_slice(),
            )
        } else {
            (run_untraced(&inputs, args.seconds), END_TO_END.as_slice())
        };
        let calib_end = calibrate();
        println!("bench.calib_s: {calib_start:.4} s at start, {calib_end:.4} s at end");
        if args.trace {
            t.push("bench.calib_s", calib_start);
            t.push("bench.calib_s", calib_end);
        }
        for (name, v) in &t.samples {
            let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            eprintln!("farbench: samples {name}: {}", v.join(" "));
        }
        let metrics: Vec<(&str, f64, &str)> = names
            .iter()
            .map(|&(name, unit)| (name, t.median(name).unwrap_or(f64::NAN), unit))
            .collect();
        let complete = metrics.iter().all(|m| m.1.is_finite());
        if !complete {
            eprintln!("farbench: some metric has no sample");
        }
        (t.failed == 0 && complete, t.attempted, t.failed, metrics)
    });
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (name, value, unit) in &metrics {
        json_metric(
            &mut out,
            name,
            if value.is_finite() { *value } else { 0.0 },
            unit,
        );
    }
    out.push_str("}}");
    println!("{out}");
}
