#![forbid(unsafe_code)]
//! The traced pass: an in-process staged replay of one workload that
//! times calls into each scanner layer from outside, records spans, and
//! reports the per-layer metrics. End-to-end numbers never come from here;
//! `e2e --trace 1` runs this binary and adds the two process-level
//! metrics only a child process can give.
//!
//! A replay drives the layers in the engine's own order, one batch at a
//! time — walk targets, pace, stamp the RTT tracker, render, `send_batch`,
//! `recv_frames`, parse, RTT take, dedup, output row — then drains the
//! cooldown through the same receive stages, a batch of frames at a time.
//! It runs twice per round, spans off and on, next
//! to one untraced engine run of the same configuration; a replay whose
//! counters differ from the engine's is reported as failed.

mod adapter;

use adapter::{Plan, Scan, Stages, Totals};
use std::process::ExitCode;
use std::time::Instant;
use zmap_benchmark::spans::{self, Span};
use zmap_benchmark::workloads::{self, Scale};
use zmap_benchmark::{out_dir, parse_options, result_line, stats, Options};

/// Stages in replay order. Two are reported but left out of the stage sum
/// that is held against the engine: `cookie` repeats work `render` also
/// does, and `output` is the CLI's emit step — the engine only collects
/// results in memory (`cli.emit_share` is where that cost shows end to end).
const STAGES: [&str; 11] = [
    "walk", "pace", "rtt_note", "cookie", "render", "send", "recv", "parse", "rtt_take", "dedup",
    "output",
];
const WALK: usize = 0;
const PACE: usize = 1;
const RTT_NOTE: usize = 2;
const COOKIE: usize = 3;
const RENDER: usize = 4;
const SEND: usize = 5;
const RECV: usize = 6;
const PARSE: usize = 7;
const RTT_TAKE: usize = 8;
const DEDUP: usize = 9;
const OUTPUT: usize = 10;

/// Full span records are kept for one batch in this many; every batch
/// feeds the accumulators.
const SPAN_SAMPLE: u64 = 64;
/// Response keys kept for the per-outcome dedup measurement.
const KEY_LOG_CAP: usize = 2_000_000;
const ROOT_SPAN: u64 = 1;
/// Accepted `trace.coverage` on `dark` and `dense` (observed 0.79–0.89 and
/// 0.98–1.03 over six seeds).
const COVERAGE_BAND: std::ops::RangeInclusive<f64> = 0.6..=1.1;

/// Stage timer and span recorder. Switched off, every method is a no-op
/// that never reads the clock: that replay is the overhead baseline.
struct Tracer {
    on: bool,
    origin: Instant,
    acc: [u64; STAGES.len()],
    /// Laps closed per stage: each one holds about one clock read, which
    /// `finish` takes back out (it matters where a lap covers one frame).
    laps: [u64; STAGES.len()],
    spans: Vec<Span>,
    next_id: u64,
    batches: u64,
    /// `(span id, start)` of the batch in flight, when it is sampled.
    batch: Option<(u64, u64)>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            acc: [0; STAGES.len()],
            laps: [0; STAGES.len()],
            spans: Vec::new(),
            next_id: ROOT_SPAN + 1,
            batches: 0,
            batch: None,
        }
    }

    /// Nanoseconds since the replay began (0 when off).
    fn mark(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn begin_batch(&mut self) -> u64 {
        let t = self.mark();
        if self.on {
            if self.batches.is_multiple_of(SPAN_SAMPLE) {
                self.batch = Some((self.next_id, t));
                self.next_id += 1;
            }
            self.batches += 1;
        }
        t
    }

    /// Closes stage `stage`, which began at `since`; returns now, the
    /// start of the next stage.
    fn lap(&mut self, stage: usize, since: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.mark();
        self.acc[stage] += now - since;
        self.laps[stage] += 1;
        if let Some((batch, _)) = self.batch {
            self.spans.push(Span {
                id: self.next_id,
                parent: batch,
                name: STAGES[stage],
                start_ns: since,
                end_ns: now,
            });
            self.next_id += 1;
        }
        now
    }

    fn end_batch(&mut self) {
        if let Some((id, start_ns)) = self.batch.take() {
            let end_ns = self.mark();
            self.spans.push(Span {
                id,
                parent: ROOT_SPAN,
                name: "batch",
                start_ns,
                end_ns,
            });
        }
    }

    fn finish(mut self) -> ([u64; STAGES.len()], Vec<Span>) {
        if self.on {
            let end_ns = self.mark();
            self.spans.push(Span {
                id: ROOT_SPAN,
                parent: 0,
                name: "workload",
                start_ns: 0,
                end_ns,
            });
            const READS: u64 = 4096;
            let t0 = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(self.mark());
            }
            let clock_ns = t0.elapsed().as_nanos() as u64 / READS;
            for (acc, laps) in self.acc.iter_mut().zip(self.laps) {
                *acc = acc.saturating_sub(laps * clock_ns);
            }
        }
        (self.acc, self.spans)
    }
}

struct Replay {
    wall_ns: u64,
    acc: [u64; STAGES.len()],
    spans: Vec<Span>,
    totals: Totals,
    queue_peak: u64,
    keys: Vec<u64>,
}

/// The receive half of a cycle, shared by the send loop (`drain` is
/// `None`: take what has arrived) and the cooldown (`Some((end, want))`:
/// hop through pending deliveries up to `end` until `want` frames are in
/// hand). Returns the frame count.
fn rx(
    st: &mut Stages,
    tr: &mut Tracer,
    keys: &mut Vec<u64>,
    drain: Option<(u64, usize)>,
) -> Result<usize, String> {
    let mut t = tr.mark();
    let frames = match drain {
        None => st.recv(),
        Some((end, want)) => st.recv_until(end, want),
    };
    t = tr.lap(RECV, t);
    if frames == 0 {
        return Ok(0);
    }
    st.parse();
    t = tr.lap(PARSE, t);
    st.rtt_take();
    t = tr.lap(RTT_TAKE, t);
    st.dedup();
    t = tr.lap(DEDUP, t);
    st.output()?;
    tr.lap(OUTPUT, t);
    let room = KEY_LOG_CAP.saturating_sub(keys.len());
    keys.extend(st.batch_keys().iter().take(room));
    Ok(frames)
}

fn replay(
    scan: &Scan,
    plan: &Plan,
    out_path: &std::path::Path,
    traced: bool,
) -> Result<Replay, String> {
    let mut st = plan.stages(scan, out_path)?;
    let mut tr = Tracer::new(traced);
    let mut keys = Vec::new();
    let mut queue_peak = 0u64;
    let mut remaining = scan.max_targets();
    let wall = Instant::now();
    loop {
        let want = (scan.batch() as u64).min(remaining) as usize;
        if want == 0 {
            break;
        }
        let mut t = tr.begin_batch();
        let got = st.walk(want);
        t = tr.lap(WALK, t);
        if got > 0 {
            remaining -= got as u64;
            st.pace();
            t = tr.lap(PACE, t);
            st.rtt_note();
            t = tr.lap(RTT_NOTE, t);
            st.cookie();
            t = tr.lap(COOKIE, t);
            st.render();
            t = tr.lap(RENDER, t);
            st.send()?;
            tr.lap(SEND, t);
            queue_peak = queue_peak.max(st.queue_depth());
            rx(&mut st, &mut tr, &mut keys, None)?;
        }
        tr.end_batch();
        if got < want {
            break; // the walk is exhausted
        }
    }
    // Cooldown: a batch of pending deliveries at a time, then to the end.
    let end = st.now() + scan.cooldown_ns();
    loop {
        tr.begin_batch();
        let frames = rx(&mut st, &mut tr, &mut keys, Some((end, scan.batch())))?;
        tr.end_batch();
        if frames == 0 {
            break;
        }
    }
    st.advance_to(end);
    tr.begin_batch();
    rx(&mut st, &mut tr, &mut keys, None)?;
    tr.end_batch();
    let totals = st.finish()?;
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let (acc, spans) = tr.finish();
    Ok(Replay {
        wall_ns,
        acc,
        spans,
        totals,
        queue_peak,
        keys,
    })
}

/// `a / b`, or 0 when the workload never exercised the denominator.
fn per(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Family-specific metric names: the replayed scan's family fills one set,
/// the small scan of the other family fills the other.
fn family_metrics(r: &Replay, v6: bool) -> Metrics {
    let c = &r.totals.counts;
    let (walk, render, parse) = if v6 {
        (
            "targets.v6_ns_per_target",
            "wire.v6_render_ns",
            "wire.v6_parse_ns",
        )
    } else {
        ("targets.ns_per_target", "wire.render_ns", "wire.parse_ns")
    };
    vec![
        (walk, per(r.acc[WALK], c.targets), "ns"),
        (render, per(r.acc[RENDER], c.sent), "ns"),
        (parse, per(r.acc[PARSE], r.totals.frames), "ns"),
    ]
}

/// Everything one round (engine run + replay off + replay on) yields.
fn round_metrics(on: &Replay, off_wall_ns: u64, engine_ns_per_probe: f64, v6: bool) -> Metrics {
    let t = &on.totals;
    let c = &t.counts;
    let stage_sum: u64 = (0..STAGES.len())
        .filter(|&s| s != COOKIE && s != OUTPUT)
        .map(|s| on.acc[s])
        .sum();
    let stage_sum_ns = per(stage_sum, c.sent);
    let mut m = family_metrics(on, v6);
    m.extend([
        ("targets.yield_ratio", per(c.targets, t.elements), "ratio"),
        ("wire.cookie_ns", per(on.acc[COOKIE], c.sent), "ns"),
        ("wire.parse_ok_share", per(c.validated, t.frames), "ratio"),
        ("core.pace_ns", per(on.acc[PACE], c.sent), "ns"),
        ("core.rtt_note_ns", per(on.acc[RTT_NOTE], c.sent), "ns"),
        ("core.rtt_take_ns", per(on.acc[RTT_TAKE], c.validated), "ns"),
        ("core.output_ns", per(on.acc[OUTPUT], t.rows), "ns"),
        ("core.output_bytes_per_row", per(t.out_bytes, t.rows), "B"),
        ("core.engine_ns_per_probe", engine_ns_per_probe, "ns"),
        (
            "core.engine_other_ns",
            engine_ns_per_probe - stage_sum_ns,
            "ns",
        ),
        ("netsim.send_ns", per(on.acc[SEND], c.sent), "ns"),
        ("netsim.recv_ns", per(on.acc[RECV], t.frames), "ns"),
        ("netsim.queue_peak_frames", on.queue_peak as f64, "frames"),
        ("dedup.observe_ns", per(on.acc[DEDUP], t.observed), "ns"),
        ("dedup.dup_share", per(c.duplicates, t.observed), "ratio"),
        ("dedup.evictions", t.evictions as f64, "count"),
        ("dedup.window_bytes", t.window_bytes as f64, "B"),
        ("trace.stage_sum_ns", stage_sum_ns, "ns"),
        (
            "trace.coverage",
            stage_sum_ns / engine_ns_per_probe,
            "ratio",
        ),
        (
            "trace.overhead_share",
            on.wall_ns as f64 / off_wall_ns as f64 - 1.0,
            "ratio",
        ),
    ]);
    m
}

/// The fixed small scan of the family the workload does not use, so both
/// families' walk / render / parse numbers are reported on every run.
fn other_family_scan(main_is_v6: bool, seed: u64, work: &std::path::Path) -> Result<Scan, String> {
    let seed_s = seed.to_string();
    let mut args: Vec<String> = if main_is_v6 {
        [
            "--subnet",
            "61.0.0.0/16",
            "--sim-live-fraction",
            "1.0",
            "--output-failures",
        ]
        .map(String::from)
        .to_vec()
    } else {
        let list = work.join(format!("other-v6-{seed}-prefixes.txt"));
        std::fs::write(&list, workloads::prefix_list(seed, 16))
            .map_err(|e| format!("{}: {e}", list.display()))?;
        [
            "--ipv6",
            "2001:db8:ffff::1",
            "--prefix-list",
            &list.display().to_string(),
            "-p",
            "443",
        ]
        .map(String::from)
        .to_vec()
    };
    args.extend(
        [
            "--max-targets",
            "65536",
            "-r",
            "10000000",
            "--cooldown-secs",
            "1",
            "-q",
            "-O",
            "csv",
        ]
        .map(String::from),
    );
    args.extend([
        "--seed".to_string(),
        seed_s.clone(),
        "--sim-seed".to_string(),
        seed_s,
    ]);
    Scan::from_cli(&args)
}

/// Layer measurements that do not depend on replay rounds.
fn micro_metrics(
    scan: &Scan,
    plan: &Plan,
    v4_scan: &Scan,
    keys: &[u64],
) -> Result<Metrics, String> {
    let mut search_us = Vec::new();
    let mut attempts = 0u64;
    const SEARCHES: u64 = 16;
    for i in 0..SEARCHES {
        let (ns, tries) = adapter::generator_search(plan.group_targets(), scan.seed() + i)?;
        search_us.push(ns as f64 / 1e3);
        attempts += u64::from(tries);
    }
    let (constraint, build_ns) = scan.build_constraint();
    let lookup_ns = adapter::constraint_lookup_ns(&constraint, 1 << 20, scan.seed());
    let rekeyed = v4_scan.plan(16)?;
    let rekey_ns = adapter::walk_ns(&rekeyed, v4_scan, 1 << 19);
    let (ring_ns, ring_full) = adapter::ring_handoff(1 << 17, scan.batch());
    let (counter_ns, hist_ns) = adapter::metrics_ns(1 << 22);
    let (fresh_ns, dup_ns) = adapter::dedup_split_ns(keys, scan.window());
    Ok(vec![
        ("math.generator_search_us", stats::median(&search_us), "us"),
        (
            "math.generator_attempts",
            attempts as f64 / SEARCHES as f64,
            "count",
        ),
        ("targets.constraint_build_us", build_ns as f64 / 1e3, "us"),
        ("targets.constraint_lookup_ns", lookup_ns, "ns"),
        ("targets.rekey_ns_per_target", rekey_ns, "ns"),
        ("core.ring_handoff_ns", ring_ns, "ns"),
        ("core.ring_full_share", ring_full, "ratio"),
        ("metrics.counter_add_ns", counter_ns, "ns"),
        ("metrics.hist_record_ns", hist_ns, "ns"),
        ("dedup.fresh_ns", fresh_ns, "ns"),
        ("dedup.dup_ns", dup_ns, "ns"),
    ])
}

struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    engine_wall_s: f64,
    problems: Vec<String>,
}

fn run(o: &Options) -> Result<Report, String> {
    let name = o.workload.as_deref().ok_or("give --workload <name>")?;
    let scale = if o.quick { Scale::Quick } else { Scale::Full };
    let started = Instant::now();
    let work = out_dir().join("work");
    let wl = workloads::plan(name, o.seed, scale, &work);
    wl.write_inputs()
        .map_err(|e| format!("writing inputs: {e}"))?;
    let scan = Scan::from_cli(&wl.scan_args)?;
    let plan = scan.plan(0)?;
    let data = work.join(format!("{name}-replay.csv"));

    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds: Vec<Metrics> = Vec::new();
    let mut engine_wall_s = Vec::new();
    // The last traced replay supplies the span file and the key log.
    let last = loop {
        let round = Instant::now();
        let engine = scan.run_engine()?;
        let off = replay(&scan, &plan, &data, false)?;
        let on = replay(&scan, &plan, &data, true)?;
        for (what, counts) in [
            ("untraced", &off.totals.counts),
            ("traced", &on.totals.counts),
        ] {
            attempted += counts.sent.max(1);
            if *counts != engine.counts {
                failed += counts.sent.max(1);
                problems.push(format!(
                    "{what} replay counters {counts:?} != engine counters {:?}",
                    engine.counts
                ));
            }
        }
        if on.totals.world_frames_sent != on.totals.counts.sent {
            problems.push(format!(
                "world saw {} frames, replay sent {}",
                on.totals.world_frames_sent, on.totals.counts.sent
            ));
        }
        engine_wall_s.push((engine.build_ns + engine.run_ns) as f64 / 1e9);
        let engine_ns = per(engine.run_ns, engine.counts.sent);
        rounds.push(round_metrics(&on, off.wall_ns, engine_ns, scan.is_v6()));
        let spent = started.elapsed().as_secs_f64();
        // Leave a fifth of the budget for the measurements below.
        if o.quick || spent + round.elapsed().as_secs_f64() > 0.8 * o.seconds {
            break on;
        }
    };

    // Per metric, the median over rounds.
    let mut metrics: Metrics = rounds[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let column: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
            (name, stats::median(&column), unit)
        })
        .collect();

    // The stages must account for the engine's time, neither missing most
    // of it nor costing more than it: outside this band the per-stage
    // numbers are the replay's own, not the scanner's. Checked where TX
    // alone (`dark`) and RX alone (`dense`) dominate, at full size.
    if let Some(&(_, coverage, _)) = metrics.iter().find(|m| m.0 == "trace.coverage") {
        if !o.quick && matches!(name, "dark" | "dense") && !COVERAGE_BAND.contains(&coverage) {
            problems.push(format!(
                "trace.coverage {coverage:.3} outside {COVERAGE_BAND:?}"
            ));
        }
    }

    let other = other_family_scan(scan.is_v6(), o.seed, &work)?;
    let other_replay = replay(
        &other,
        &other.plan(0)?,
        &work.join(format!("{name}-other.csv")),
        true,
    )?;
    metrics.extend(family_metrics(&other_replay, other.is_v6()));
    let v4_scan = if scan.is_v6() { &other } else { &scan };
    metrics.extend(micro_metrics(&scan, &plan, v4_scan, &last.keys)?);

    let trace = out_dir().join(format!("trace-{name}.jsonl"));
    let file = std::fs::File::create(&trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    spans::write_jsonl(
        std::io::BufWriter::new(file),
        &format!("{name}-seed{}", o.seed),
        &last.spans,
    )
    .map_err(|e| format!("{}: {e}", trace.display()))?;

    println!(
        "== {name} (per layer, {} round(s) of engine + replay off/on) ==",
        rounds.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<30} {value:>16.4} {unit}");
    }
    println!(
        "  self time of the {} sampled spans ({}), by name:",
        last.spans.len(),
        trace.display()
    );
    for (name, ns) in spans::self_time_by_name(&last.spans) {
        println!("    {name:<10} {:>12.3} ms", ns as f64 / 1e6);
    }
    let c = &last.totals.counts;
    println!(
        "  replay counters: targets={} sent={} validated={} discarded={} duplicates={} \
         successes={} failures={}",
        c.targets, c.sent, c.validated, c.discarded, c.duplicates, c.successes, c.failures
    );
    Ok(Report {
        metrics,
        attempted,
        failed,
        engine_wall_s: stats::median(&engine_wall_s),
        problems,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let report = parse_options(&argv).and_then(|o| run(&o));
    match report {
        Ok(r) => {
            for p in &r.problems {
                println!("  GATE VIOLATION: {p}");
            }
            // The driver's keys plus one for `e2e`, which turns it into
            // `cli.emit_share`.
            let mut line = result_line(r.problems.is_empty(), r.attempted, r.failed, &r.metrics);
            if let serde_json::Value::Object(members) = &mut line {
                members.insert("engine_wall_s".into(), r.engine_wall_s.into());
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::from(2)
        }
    }
}
