//! The traced run: per-layer metrics for the four crates.
//!
//! Each round times, in this order: for every query, an untraced build and
//! query (the denominator of `trace.overhead`, and the source of every
//! per-layer time, CPU and memory figure), then the same build and query
//! with a fresh `RunRecorder` attached (counters and the recorder's
//! `reduce`, `estimate` and `topk.verify` spans); then direct calls into
//! `brics_reduce`, `brics_bicc` and the `brics_graph` traversal kernels.
//! Round 0 is a warm-up without the traced twins; its figures are dropped.
//!
//! The benchmark records its own span around every one of those calls and
//! keeps the spans in memory; they are written to
//! `farbench/out/trace-<workload>-<seed>.json` when the run ends. A span
//! inside a `core` call is known only from the recorder's phase totals, so
//! it carries a duration but no start time. A layer's self time is the
//! duration of its spans minus that of their children.

use crate::check::distinct_vertices;
use crate::{build, measure, run_query, Inputs, Measured, Query, Tally, K, QUERIES};
use brics::{ExecutionContext, PreparedGraph, ReductionConfig, RunRecorder};
use brics_bicc::BlockCutTree;
use brics_graph::telemetry::Counter;
use brics_graph::traversal::{BfsCut, DialBfs, HybridBfs, MsBfs};
use std::time::Instant;

/// Per-layer metrics in report order, with their units.
pub(crate) const PER_LAYER: [(&str, &str); 36] = [
    ("graph.msbfs_mteps", "MTEPS"),
    ("graph.msbfs_levels", "count"),
    ("graph.dial_mteps", "MTEPS"),
    ("graph.bfscut_mteps", "MTEPS"),
    ("graph.hybrid_mteps", "MTEPS"),
    ("reduce.s", "s"),
    ("reduce.removed_frac", "ratio"),
    ("reduce.weighted", "count"),
    ("bicc.bct_s", "s"),
    ("bicc.blocks", "count"),
    ("bicc.largest_block_frac", "ratio"),
    ("core.prepare_rest_s", "s"),
    ("core.random_cpu_util", "ratio"),
    ("core.cumulative_cpu_util", "ratio"),
    ("core.topk_cpu_util", "ratio"),
    ("core.random_mteps", "MTEPS"),
    ("core.cumulative_mteps", "MTEPS"),
    ("core.edges_scanned.random", "count"),
    ("core.edges_scanned.cumulative", "count"),
    ("core.edges_scanned.topk", "count"),
    ("core.batches_msbfs.random", "count"),
    ("core.batches_msbfs.cumulative", "count"),
    ("core.topk_estimate_s", "s"),
    ("core.topk_verify_s", "s"),
    ("core.topk_cut_sweeps", "count"),
    ("core.plan_accuracy.random", "ratio"),
    ("core.plan_accuracy.cumulative", "ratio"),
    ("core.plan_accuracy.topk", "ratio"),
    ("core.cumulative_speedup", "ratio"),
    ("bench.calib_s", "s"),
    ("bench.threads", "count"),
    ("trace.overhead", "ratio"),
    ("self_s.graph", "s"),
    ("self_s.reduce", "s"),
    ("self_s.bicc", "s"),
    ("self_s.core", "s"),
];

const LAYERS: [&str; 4] = ["graph", "reduce", "bicc", "core"];

/// Sources per kernel timing: one full MS-BFS word, and enough single-source
/// sweeps for the serial kernels to run for milliseconds.
const MSBFS_SOURCES: usize = 64;
const SERIAL_SOURCES: usize = 16;

/// One span the benchmark recorded around a call into a layer.
struct Span {
    name: String,
    layer: &'static str,
    round: usize,
    /// Seconds after the run's epoch; `None` for spans known only from the
    /// recorder's phase totals.
    start_s: Option<f64>,
    dur_s: f64,
    parent: Option<usize>,
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn span(
        &mut self,
        epoch: Instant,
        name: &str,
        layer: &'static str,
        round: usize,
        start: Instant,
        dur_s: f64,
    ) -> usize {
        let start_s = Some(start.duration_since(epoch).as_secs_f64());
        self.spans.push(Span {
            name: name.into(),
            layer,
            round,
            start_s,
            dur_s,
            parent: None,
        });
        self.spans.len() - 1
    }

    /// Adds the recorder's top-level phases that are calls into another
    /// crate as children of span `parent`.
    fn children_from(&mut self, parent: usize, rec: &RunRecorder) {
        let round = self.spans[parent].round;
        for ph in rec.report().phases {
            let layer = match ph.name.as_str() {
                "reduce" => "reduce",
                "bct.build" => "bicc",
                "bfs.batch" => "graph",
                _ => continue,
            };
            self.spans.push(Span {
                name: ph.name,
                layer,
                round,
                start_s: None,
                dur_s: ph.total_seconds,
                parent: Some(parent),
            });
        }
    }

    /// Self time of `layer` in `round`: its spans minus their children.
    fn self_time(&self, layer: &str, round: usize) -> f64 {
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.layer == layer && s.round == round {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.dur_s)
                    .sum();
                total += s.dur_s - children;
            }
        }
        total
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let start = s.start_s.map_or("null".to_string(), |v| format!("{v:?}"));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"round\": {}, \
                 \"start_s\": {start}, \"dur_s\": {:?}, \"parent\": {parent}}}{}\n",
                s.name,
                s.layer,
                s.round,
                s.dur_s,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`.
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// The memory-plan figure that admits query `q`.
fn planned_bytes(q: Query, p: &PreparedGraph<'_>) -> u64 {
    match q {
        Query::Random => p.plan().accumulate_bytes,
        Query::Cumulative | Query::Topk => p.plan().cumulative_bytes,
    }
}

/// Scratch of the directly timed kernels, allocated once per run.
struct Kernels {
    msbfs: MsBfs,
    dial: DialBfs,
    cut: BfsCut,
    hybrid: HybridBfs,
    sources: Vec<u32>,
}

pub(crate) fn run(inputs: &Inputs, seconds: f64, threads: usize, label: &str) -> Tally {
    let g = &inputs.graph;
    let n = g.num_nodes();
    let plain = ExecutionContext::new();
    let topk_p = inputs.topk.as_ref().map(|(tg, _)| build(tg, &plain));
    let mut t = Tally::default();
    let mut tracer = Tracer::default();
    let mut k = Kernels {
        msbfs: MsBfs::new(n),
        dial: DialBfs::new(n),
        cut: BfsCut::new(n),
        hybrid: HybridBfs::new(n),
        sources: distinct_vertices(n, MSBFS_SOURCES, inputs.query_seed),
    };
    let epoch = Instant::now();
    let run = crate::rounds(epoch, seconds, 2, |round| {
        let warm = round == 0;
        let mut plain_s = 0.0;
        let mut traced_s = 0.0;
        let mut query_s = [0.0; 3];
        for (qi, q) in QUERIES.into_iter().enumerate() {
            // Untraced twin: times, CPU and heap.
            let b = measure(|| build(g, &plain));
            t.attempted += 1;
            let p = b.value;
            let cpu0 = cpu_secs();
            let r = run_query(q, inputs, &p, topk_p.as_ref(), &plain);
            let cpu = cpu_secs() - cpu0;
            let ok = t.query(q, r.value).is_ok();
            plain_s += b.secs + r.secs;
            query_s[qi] = r.secs;
            if !warm && ok {
                t.push("setup_s", b.secs);
                let util = cpu / (threads as f64 * r.secs);
                t.push(format!("core.{}_cpu_util", q.name()), util);
                let plan = planned_bytes(
                    q,
                    topk_p.as_ref().filter(|_| q == Query::Topk).unwrap_or(&p),
                );
                t.push(
                    format!("core.plan_accuracy.{}", q.name()),
                    r.peak_bytes as f64 / plan as f64,
                );
            }
            drop(p);
            if warm {
                continue;
            }

            // Traced twin: counters and spans.
            let rec = RunRecorder::new();
            let ctx = plain.clone().with_recorder(&rec);
            let start = Instant::now();
            let b = measure(|| build(g, &ctx));
            t.attempted += 1;
            let s = tracer.span(epoch, "core.build", "core", round, start, b.secs);
            tracer.children_from(s, &rec);
            let p = b.value;
            let rec = RunRecorder::new();
            let ctx = plain.clone().with_recorder(&rec);
            let start = Instant::now();
            let tr = run_query(q, inputs, &p, topk_p.as_ref(), &ctx);
            let s = tracer.span(
                epoch,
                &format!("core.{}", q.name()),
                "core",
                round,
                start,
                tr.secs,
            );
            tracer.children_from(s, &rec);
            let _ = t.query(q, tr.value); // counted; the traced answer is not timed
            traced_s += b.secs + tr.secs;
            let edges = rec.counter(Counter::EdgesScanned) as f64;
            t.push(format!("core.edges_scanned.{}", q.name()), edges);
            match q {
                Query::Random | Query::Cumulative => {
                    t.push(format!("core.{}_mteps", q.name()), edges / r.secs / 1e6);
                    t.push(
                        format!("core.batches_msbfs.{}", q.name()),
                        rec.counter(Counter::BatchesMsbfs) as f64,
                    );
                }
                Query::Topk => {
                    let report = rec.report();
                    let phase = |name: &str| {
                        report
                            .phases
                            .iter()
                            .find(|p| p.name == name)
                            .map_or(0.0, |p| p.total_seconds)
                    };
                    t.push("core.topk_estimate_s", phase("estimate"));
                    t.push("core.topk_verify_s", phase("topk.verify"));
                    t.push(
                        "core.topk_cut_sweeps",
                        rec.counter(Counter::TopkPrunedBfs) as f64,
                    );
                }
            }
        }
        layer_calls(inputs, &mut k, &mut t, &mut tracer, epoch, round);
        if !warm {
            t.push("core.cumulative_speedup", query_s[0] / query_s[1]);
            t.push("trace.overhead", traced_s / plain_s);
            for layer in LAYERS {
                t.push(format!("self_s.{layer}"), tracer.self_time(layer, round));
            }
        }
    });
    eprintln!(
        "farbench: {} traced rounds after one warm-up round",
        run - 1
    );
    let rest = t.median("setup_s").unwrap_or(f64::NAN)
        - t.median("reduce.s").unwrap_or(f64::NAN)
        - t.median("bicc.bct_s").unwrap_or(f64::NAN);
    t.push("core.prepare_rest_s", rest);
    t.push("bench.threads", threads as f64);
    write_trace(label, &tracer);
    t
}

/// Direct calls into `brics_reduce`, `brics_bicc` and the `brics_graph`
/// kernels, each under its own span.
fn layer_calls(
    inputs: &Inputs,
    k: &mut Kernels,
    t: &mut Tally,
    tracer: &mut Tracer,
    epoch: Instant,
    round: usize,
) {
    let g = &inputs.graph;
    let n = g.num_nodes() as f64;
    let warm = round == 0;
    let mut span = |name: &str, layer, start: Instant| {
        tracer.span(
            epoch,
            name,
            layer,
            round,
            start,
            start.elapsed().as_secs_f64(),
        );
    };

    let start = Instant::now();
    let Measured {
        value: red,
        secs: reduce_s,
        ..
    } = measure(|| brics_reduce::reduce(g, &ReductionConfig::all()));
    span("reduce.reduce", "reduce", start);

    let start = Instant::now();
    let bct = measure(|| BlockCutTree::build(&red.graph));
    span("bicc.bct", "bicc", start);

    // Kernels on the workload's own graphs: the working graph for the
    // unweighted sweeps, the reduced weighted graph for Dial.
    let start = Instant::now();
    let ms = measure(|| k.msbfs.run_batch(g, &k.sources));
    span("graph.msbfs", "graph", start);
    let ms_levels = k.msbfs.last_stats().levels;
    assert!(ms
        .value
        .iter()
        .all(|&(reached, _)| reached == g.num_nodes()));

    let survivors: Vec<u32> = red.surviving();
    let picks: Vec<u32> = distinct_vertices(survivors.len(), SERIAL_SOURCES, inputs.query_seed)
        .into_iter()
        .map(|i| survivors[i as usize])
        .collect();
    let start = Instant::now();
    let mut dial_arcs = 0;
    for &s in &picks {
        k.dial
            .run_with(&red.graph, red.weights.as_deref(), s, |_, _| {});
        dial_arcs += k.dial.arcs_scanned();
    }
    let dial_s = start.elapsed().as_secs_f64();
    span("graph.dial", "graph", start);

    let tau = inputs.reference.kth_farness(K);
    let start = Instant::now();
    let mut cut_arcs = 0;
    for &s in &k.sources[..SERIAL_SOURCES] {
        k.cut.run(g, s, tau, g.num_nodes(), 0);
        cut_arcs += k.cut.arcs_scanned();
    }
    let cut_s = start.elapsed().as_secs_f64();
    span("graph.bfscut", "graph", start);

    let start = Instant::now();
    for &s in &k.sources[..SERIAL_SOURCES] {
        k.hybrid.run(g, s);
    }
    let hybrid_s = start.elapsed().as_secs_f64();
    span("graph.hybrid", "graph", start);

    if warm {
        return;
    }
    let arcs = g.num_arcs() as f64;
    t.push("reduce.s", reduce_s);
    t.push("reduce.removed_frac", red.stats.total_removed as f64 / n);
    t.push(
        "reduce.weighted",
        f64::from(u8::from(red.weights.is_some())),
    );
    t.push("bicc.bct_s", bct.secs);
    // Removed vertices are isolated in the reduced graph; their singleton
    // blocks are not blocks of the engine's decomposition.
    let blocks: Vec<usize> = bct
        .value
        .blocks()
        .iter()
        .filter(|b| !b.edges.is_empty() || !red.removed[b.vertices[0] as usize])
        .map(|b| b.len())
        .collect();
    t.push("bicc.blocks", blocks.len() as f64);
    t.push(
        "bicc.largest_block_frac",
        blocks.iter().copied().max().unwrap_or(0) as f64 / n,
    );
    t.push(
        "graph.msbfs_mteps",
        MSBFS_SOURCES as f64 * arcs / ms.secs / 1e6,
    );
    t.push("graph.msbfs_levels", ms_levels as f64);
    t.push("graph.dial_mteps", dial_arcs as f64 / dial_s / 1e6);
    t.push("graph.bfscut_mteps", cut_arcs as f64 / cut_s / 1e6);
    t.push(
        "graph.hybrid_mteps",
        SERIAL_SOURCES as f64 * arcs / hybrid_s / 1e6,
    );
}

fn write_trace(label: &str, tracer: &Tracer) {
    let dir = std::path::Path::new("farbench/out");
    let path = dir.join(format!("trace-{label}.json"));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        eprintln!("farbench: could not write {}: {e}", path.display());
    }
}
