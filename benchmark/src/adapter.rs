//! Every `zmap-*` API the traced pass binds to, and nothing else.
//!
//! The replay in `layers.rs` times calls into the scanner's layers from
//! outside; this file is the only place that names them, so a refactor of
//! the scanner's internals has one file to update here. It keeps to the
//! narrow primitives — `TargetGenerator::iter_shard`, `Constraint::lookup`,
//! `ProbeTemplate::render_into`, `ValidationKey::probe`,
//! `ProbeBuilder::parse_response`, `SlidingWindow::check_and_insert`,
//! `OutputModule::record`, `SpscRing` push/pop and
//! `Transport::{send_batch, recv_frames}` — and their IPv6 twins, and to
//! the two engine entry points (`Scanner::run`, `run_parallel`). Workload
//! configuration comes in through `zmap_cli::parse_args`, so the replay
//! runs exactly the configuration the end-to-end pass hands the binary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zmap_cli::parse_args;
use zmap_core::config::{DedupMethod, Ipv6Config, ProbeKind, ScanConfig};
use zmap_core::metadata::Counters;
use zmap_core::metrics::{CounterId, ScanMetrics};
use zmap_core::output::{Classification, OutputFormat, OutputModule, ScanResult};
use zmap_core::parallel::{run_parallel, SharedSimTransport};
use zmap_core::ratecontrol::RateController;
use zmap_core::ring::{PushError, SpscRing};
use zmap_core::transport::{FrameBatch, SimNet, SimTransport, Transport};
use zmap_core::Scanner;
use zmap_dedup::{target_key, Deduplicator, SlidingWindow};
use zmap_metrics::{CounterBank, SharedHistogram};
use zmap_netsim::{FaultPlan, ServiceModel, V6Population, World, WorldConfig};
use zmap_targets::generator::TargetIter;
use zmap_targets::{
    parse_prefix_list, Constraint, Cycle, CyclicGroup, TargetGenerator, V6DedupSpace, V6TargetIter,
    V6TargetSpace,
};
use zmap_wire::{
    ProbeBuilder, ProbeBuilderV6, ProbeTemplate, ProbeTemplateV6, ResponseKind, WireError,
};

/// The counters a replay must reproduce to count as the same scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub targets: u64,
    pub sent: u64,
    pub validated: u64,
    pub discarded: u64,
    pub corrupted: u64,
    pub duplicates: u64,
    pub successes: u64,
    pub failures: u64,
}

impl From<Counters> for Counts {
    fn from(c: Counters) -> Self {
        Counts {
            targets: c.targets_total,
            sent: c.sent,
            validated: c.responses_validated,
            discarded: c.responses_discarded,
            corrupted: c.responses_corrupted,
            duplicates: c.duplicates_suppressed,
            successes: c.unique_successes,
            failures: c.unique_failures,
        }
    }
}

/// One workload as the `zmap` binary would run it: the scan configuration
/// and the simulated world, both derived from the CLI argument vector.
pub struct Scan {
    cfg: ScanConfig,
    world: WorldConfig,
    format: OutputFormat,
    window: usize,
}

/// An untraced in-process engine run.
pub struct EngineRun {
    /// World and scanner construction.
    pub build_ns: u64,
    /// `Scanner::run` / `run_parallel` alone.
    pub run_ns: u64,
    pub counts: Counts,
}

impl Scan {
    /// Parses `argv` with the CLI's own parser and builds the world the
    /// way `zmap_cli::run_scan` does (service model, fault plan, IPv6
    /// population).
    pub fn from_cli(argv: &[String]) -> Result<Scan, String> {
        let mut opts = parse_args(argv).map_err(|e| format!("zmap arguments: {e}"))?;
        let mut model = ServiceModel::default();
        if let Some(f) = opts.sim_live_fraction {
            model.live_fraction = f.clamp(0.0, 1.0);
        }
        let read =
            |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let faults = match &opts.fault_plan_path {
            Some(path) => FaultPlan::from_json_str(&read(path)?)
                .map_err(|e| format!("fault plan {path}: {e}"))?,
            None => FaultPlan::none(),
        };
        let v6 = match (&opts.ipv6_source, &opts.prefix_list_path) {
            (Some(src), Some(path)) => {
                let contents = read(path)?;
                let pop = V6Population::from_prefix_list(&contents, opts.config.ports.clone())
                    .map_err(|e| format!("prefix list {path}: {e}"))?;
                opts.config.ipv6 = Some(Ipv6Config {
                    source_ip: *src,
                    prefix_list: contents,
                });
                Some(pop)
            }
            _ => None,
        };
        let cfg = opts.config;
        if cfg.probe != ProbeKind::TcpSyn {
            return Err("the replay covers the tcp_synscan module only".into());
        }
        if cfg.subshards.max(1) != 1 || cfg.probes_per_target.max(1) != 1 {
            return Err("the replay covers one send thread and one probe per target".into());
        }
        let DedupMethod::Window(window) = cfg.dedup else {
            return Err("the replay covers sliding-window dedup only".into());
        };
        Ok(Scan {
            world: WorldConfig {
                seed: opts.sim_seed,
                model,
                faults,
                v6,
                ..WorldConfig::default()
            },
            cfg,
            format: opts.format,
            window,
        })
    }

    pub fn is_v6(&self) -> bool {
        self.cfg.ipv6.is_some()
    }

    /// Frames per batched send.
    pub fn batch(&self) -> usize {
        self.cfg.batch.max(1)
    }

    /// `--max-targets` (`u64::MAX` when the whole shard is walked).
    pub fn max_targets(&self) -> u64 {
        match self.cfg.max_targets {
            0 => u64::MAX,
            n => n,
        }
    }

    pub fn cooldown_ns(&self) -> u64 {
        self.cfg.cooldown_secs * 1_000_000_000
    }

    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Sliding-window capacity the scan runs with (`--dedup-window`).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs the scan through the engine the CLI would pick, untraced.
    pub fn run_engine(&self) -> Result<EngineRun, String> {
        let t0 = Instant::now();
        if self.cfg.tx_pipeline {
            let world = Arc::new(Mutex::new(World::new(self.world.clone())));
            let transport = SharedSimTransport::new(world, self.cfg.source_ip);
            let t1 = Instant::now();
            let summary =
                run_parallel(&self.cfg, &transport).map_err(|e| format!("run_parallel: {e}"))?;
            let t2 = Instant::now();
            Ok(EngineRun {
                build_ns: (t1 - t0).as_nanos() as u64,
                run_ns: (t2 - t1).as_nanos() as u64,
                counts: summary.metadata.counters.into(),
            })
        } else {
            let net = SimNet::new(self.world.clone());
            let scanner = Scanner::new(self.cfg.clone(), net.transport(self.cfg.source_ip))
                .map_err(|e| format!("Scanner::new: {e}"))?;
            let t1 = Instant::now();
            let summary = scanner.run();
            let t2 = Instant::now();
            Ok(EngineRun {
                build_ns: (t1 - t0).as_nanos() as u64,
                run_ns: (t2 - t1).as_nanos() as u64,
                counts: summary.metadata.counters.into(),
            })
        }
    }

    /// The scan's address constraint, finalized, with its build time.
    pub fn build_constraint(&self) -> (Constraint, u64) {
        let t0 = Instant::now();
        let mut c = self.cfg.effective_constraint();
        c.finalize();
        black_box(c.allowed_count());
        let ns = t0.elapsed().as_nanos() as u64;
        (c, ns)
    }

    /// Builds the immutable half of the replay: target space, probe
    /// builder and packet template for the scan's address family.
    /// `rekey_blocks > 0` walks the same IPv4 space as that many
    /// independently keyed blocks.
    pub fn plan(&self, rekey_blocks: u32) -> Result<Plan, String> {
        let cfg = &self.cfg;
        let family = match &cfg.ipv6 {
            None => {
                let gen = TargetGenerator::builder()
                    .constraint(cfg.effective_constraint())
                    .ports(&cfg.ports)
                    .seed(cfg.seed)
                    .shards(cfg.num_shards.max(1))
                    .subshards(1)
                    .algorithm(cfg.shard_algorithm)
                    .rekey_blocks(rekey_blocks)
                    .build()
                    .map_err(|e| format!("target generator: {e}"))?;
                let mut builder = ProbeBuilder::new(cfg.source_ip, cfg.seed);
                builder.layout = cfg.option_layout;
                builder.ip_id = cfg.ip_id;
                let template = ProbeTemplate::tcp_syn(&builder);
                Family::V4 {
                    gen,
                    builder,
                    template,
                }
            }
            Some(v6) => {
                let specs =
                    parse_prefix_list(&v6.prefix_list).map_err(|e| format!("prefix list: {e}"))?;
                let space = V6TargetSpace::new(specs, &cfg.ports, cfg.seed, cfg.shard_algorithm)
                    .map_err(|e| format!("v6 walk plan: {e}"))?;
                let dedup = space.dedup_space();
                let builder = ProbeBuilderV6::new(v6.source_ip, cfg.seed);
                let template = ProbeTemplateV6::tcp_syn(&builder);
                Family::V6 {
                    space,
                    dedup,
                    builder,
                    template,
                }
            }
        };
        Ok(Plan { family })
    }
}

enum Family {
    V4 {
        gen: TargetGenerator,
        builder: ProbeBuilder,
        template: ProbeTemplate,
    },
    V6 {
        space: V6TargetSpace,
        dedup: V6DedupSpace,
        builder: ProbeBuilderV6,
        template: ProbeTemplateV6,
    },
}

/// Target space, key material and packet template of one scan.
pub struct Plan {
    family: Family,
}

enum Walker<'a> {
    V4(TargetIter<'a>),
    V6(V6TargetIter<'a>),
}

/// A validated response waiting for dedup and output.
#[derive(Clone, Copy)]
struct Resp {
    ts: u64,
    ip: IpAddr,
    port: u16,
    kind: ResponseKind,
    ttl: u8,
}

fn classify(kind: &ResponseKind) -> Classification {
    match kind {
        ResponseKind::SynAck => Classification::SynAck,
        ResponseKind::Rst => Classification::Rst,
        ResponseKind::EchoReply => Classification::EchoReply,
        ResponseKind::Unreachable { .. } => Classification::Unreach,
        ResponseKind::UdpData(_) => Classification::UdpData,
        ResponseKind::OtherTcp(_) => Classification::Other,
    }
}

/// What a finished replay accumulated.
pub struct Totals {
    pub counts: Counts,
    /// Group elements stepped, rejected ones included.
    pub elements: u64,
    /// Frames handed back by `recv_frames`.
    pub frames: u64,
    /// Keys shown to the dedup window.
    pub observed: u64,
    pub rows: u64,
    pub out_bytes: u64,
    /// Fresh inserts that pushed an older key out.
    pub evictions: u64,
    pub window_bytes: u64,
    /// `World::stats().frames_sent` — what the simulator says left the NIC.
    pub world_frames_sent: u64,
}

/// The mutable half of a replay: one stage method per layer boundary, each
/// working on the current batch. `layers.rs` calls them in the engine's
/// order and times each call.
pub struct Stages<'a> {
    plan: &'a Plan,
    walker: Walker<'a>,
    net: SimNet,
    transport: SimTransport,
    rc: RateController,
    metrics: ScanMetrics,
    rng: StdRng,
    batch: FrameBatch,
    window: SlidingWindow,
    out: OutputModule<File>,
    report_failures: bool,
    start: u64,
    // The batch in flight.
    v4: Vec<(Ipv4Addr, u16)>,
    v6: Vec<(Ipv6Addr, u16)>,
    ats: Vec<u64>,
    frames: Vec<(u64, Vec<u8>)>,
    responses: Vec<Resp>,
    keys: Vec<u64>,
    fresh: Vec<bool>,
    // Running totals.
    counts: Counts,
    frames_total: u64,
    observed: u64,
    fresh_total: u64,
    rows: u64,
}

impl Plan {
    /// Targets one cyclic group of this plan permutes: the whole IPv4
    /// target set, or one prefix's pool for IPv6.
    pub fn group_targets(&self) -> u64 {
        match &self.family {
            Family::V4 { gen, .. } => gen.target_count(),
            Family::V6 { space, .. } => {
                let total = u64::try_from(space.target_count()).unwrap_or(u64::MAX);
                total / space.walk_count().max(1) as u64
            }
        }
    }

    /// Fresh mutable state for one replay of `scan`: a new world, window,
    /// rate schedule and data file at `out_path`.
    pub fn stages<'a>(&'a self, scan: &Scan, out_path: &Path) -> Result<Stages<'a>, String> {
        let cfg = &scan.cfg;
        let walker = match &self.family {
            Family::V4 { gen, .. } => Walker::V4(gen.iter_shard(cfg.shard, 0)),
            Family::V6 { space, .. } => {
                Walker::V6(space.iter_shard(cfg.shard, cfg.num_shards.max(1), 0, 1))
            }
        };
        let net = SimNet::new(scan.world.clone());
        let transport = net.transport(cfg.source_ip);
        let start = transport.now();
        let file = File::create(out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
        Ok(Stages {
            plan: self,
            walker,
            net,
            rc: RateController::new(start, cfg.rate_pps),
            transport,
            metrics: ScanMetrics::new(1, Counters::default()),
            // The engine's IP-ID entropy stream.
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x005E_ED1D),
            batch: FrameBatch::new(scan.batch()),
            window: SlidingWindow::new(scan.window),
            // A bare `File`, as the CLI writes its data stream.
            out: OutputModule::new(scan.format, file),
            report_failures: cfg.report_failures,
            start,
            v4: Vec::new(),
            v6: Vec::new(),
            ats: Vec::new(),
            frames: Vec::new(),
            responses: Vec::new(),
            keys: Vec::new(),
            fresh: Vec::new(),
            counts: Counts::default(),
            frames_total: 0,
            observed: 0,
            fresh_total: 0,
            rows: 0,
        })
    }
}

impl Stages<'_> {
    /// zmap-targets: steps the cyclic walk until `n` targets decode (or it
    /// ends); returns how many the batch holds.
    pub fn walk(&mut self, n: usize) -> usize {
        self.v4.clear();
        self.v6.clear();
        let got = match &mut self.walker {
            Walker::V4(it) => {
                self.v4.extend(it.take(n).map(|t| (t.ip, t.port)));
                self.v4.len()
            }
            Walker::V6(it) => {
                self.v6.extend(it.take(n).map(|t| (t.ip, t.port)));
                self.v6.len()
            }
        };
        self.counts.targets += got as u64;
        self.metrics.add(CounterId::TargetsTotal, got as u64);
        got
    }

    /// zmap-core: one `RateController::mark_sent` per target.
    pub fn pace(&mut self) {
        let n = self.v4.len() + self.v6.len();
        self.ats.clear();
        for _ in 0..n {
            self.ats.push(self.rc.mark_sent());
        }
    }

    /// The dense key a target or response is tracked under: the packed
    /// `(ip, port)` for IPv4, the per-prefix index for IPv6.
    fn key(&self, ip: IpAddr, port: u16) -> Option<u64> {
        match (&self.plan.family, ip) {
            (Family::V4 { .. }, IpAddr::V4(a)) => Some(target_key(u32::from(a), port)),
            (Family::V6 { dedup, .. }, IpAddr::V6(a)) => dedup.key_for(a, port).ok(),
            _ => None,
        }
    }

    /// zmap-core: stamps each probe's scheduled send time in the RTT
    /// tracker (`ScanMetrics::note_probe`), key derivation included.
    pub fn rtt_note(&mut self) {
        for (i, &at) in self.ats.iter().enumerate() {
            let key = match &self.plan.family {
                Family::V4 { .. } => {
                    let (ip, port) = self.v4[i];
                    self.key(IpAddr::V4(ip), port)
                }
                Family::V6 { .. } => {
                    let (ip, port) = self.v6[i];
                    self.key(IpAddr::V6(ip), port)
                }
            };
            if let Some(key) = key {
                self.metrics.note_probe(key, at);
            }
        }
    }

    /// zmap-wire: the validation MAC alone (`ValidationKey::probe`), over
    /// the batch's targets. `render` computes it again as part of the
    /// frame, so this stage is reported but not summed.
    pub fn cookie(&mut self) {
        match &self.plan.family {
            Family::V4 { builder, .. } => {
                let src = u32::from(builder.src_ip);
                for &(ip, port) in &self.v4 {
                    black_box(builder.key.probe(src, u32::from(ip), port));
                }
            }
            Family::V6 { builder, .. } => {
                let src = builder.src_ip.octets();
                for &(ip, port) in &self.v6 {
                    black_box(builder.key.probe_v6(&src, &ip.octets(), port));
                }
            }
        }
    }

    /// zmap-wire: renders every probe of the batch into the frame pool
    /// (`ProbeTemplate::render_into`), drawing the IP-ID entropy first.
    pub fn render(&mut self) {
        let tag = self.counts.targets;
        match &self.plan.family {
            Family::V4 { template, .. } => {
                for (&(ip, port), &at) in self.v4.iter().zip(&self.ats) {
                    let entropy: u16 = self.rng.gen();
                    template.render_into(ip, port, entropy, self.batch.reserve(at, tag));
                }
            }
            Family::V6 { template, .. } => {
                for (&(ip, port), &at) in self.v6.iter().zip(&self.ats) {
                    let _entropy: u16 = self.rng.gen();
                    template.render_into(ip, port, self.batch.reserve(at, tag));
                }
            }
        }
    }

    /// zmap-netsim through `Transport::send_batch`. The workloads inject
    /// no send failures, so a refusal is an error.
    pub fn send(&mut self) -> Result<(), String> {
        let (accepted, err) = self.transport.send_batch(&self.batch, 0);
        self.metrics.add(CounterId::Sent, accepted as u64);
        self.counts.sent += accepted as u64;
        let queued = self.batch.len();
        self.batch.clear();
        match err {
            None if accepted == queued => Ok(()),
            other => Err(format!(
                "send_batch took {accepted} of {queued} frames: {other:?}"
            )),
        }
    }

    /// zmap-netsim through `Transport::recv_frames`; returns the frame
    /// count.
    pub fn recv(&mut self) -> usize {
        self.frames = self.transport.recv_frames();
        self.frames_total += self.frames.len() as u64;
        self.frames.len()
    }

    /// The cooldown's receive: hops from one pending delivery to the next,
    /// as the engine's drain loop does, until `want` frames are in hand or
    /// nothing more is due by `end`; returns the frame count. Handing the
    /// later stages a batch rather than one frame per hop changes no
    /// counter (they see the same frames in the same order) and keeps a
    /// stage lap many times longer than the clock read that bounds it.
    pub fn recv_until(&mut self, end: u64, want: usize) -> usize {
        self.frames.clear();
        while self.frames.len() < want {
            match self.transport.next_rx_at() {
                Some(t) if t <= end => {
                    self.transport.advance_to(t);
                    self.frames.extend(self.transport.recv_frames());
                }
                _ => break,
            }
        }
        self.frames_total += self.frames.len() as u64;
        self.frames.len()
    }

    /// zmap-wire: `ProbeBuilder::parse_response` on every received frame;
    /// validated responses move on, the rest are counted like the engine
    /// counts them.
    pub fn parse(&mut self) {
        self.responses.clear();
        for (ts, frame) in &self.frames {
            let parsed = match &self.plan.family {
                Family::V4 { builder, .. } => builder.parse_response(frame).map(|r| {
                    r.map(|r| Resp {
                        ts: *ts,
                        ip: IpAddr::V4(r.ip),
                        port: r.port,
                        kind: r.kind,
                        ttl: r.ttl,
                    })
                }),
                Family::V6 { builder, .. } => builder.parse_response(frame).map(|r| {
                    r.map(|r| Resp {
                        ts: *ts,
                        ip: IpAddr::V6(r.ip),
                        port: r.port,
                        kind: r.kind,
                        ttl: r.ttl,
                    })
                }),
            };
            match parsed {
                Ok(Some(resp)) => {
                    self.metrics.add(CounterId::ResponsesValidated, 1);
                    self.counts.validated += 1;
                    self.responses.push(resp);
                }
                Err(WireError::BadChecksum) => {
                    self.metrics.add(CounterId::ResponsesCorrupted, 1);
                    self.counts.corrupted += 1;
                }
                Ok(None) | Err(_) => {
                    self.metrics.add(CounterId::ResponsesDiscarded, 1);
                    self.counts.discarded += 1;
                }
            }
        }
    }

    /// zmap-core: maps each response to its key and resolves it against
    /// the RTT tracker (`ScanMetrics::record_rtt`).
    pub fn rtt_take(&mut self) {
        self.keys.clear();
        let mut kept = 0;
        for i in 0..self.responses.len() {
            let Resp { ip, port, ts, .. } = self.responses[i];
            match self.key(ip, port) {
                Some(key) => {
                    self.metrics.record_rtt(0, key, ts);
                    self.keys.push(key);
                    self.responses.swap(kept, i);
                    kept += 1;
                }
                None => {
                    self.metrics.add(CounterId::ResponsesDiscarded, 1);
                    self.counts.discarded += 1;
                }
            }
        }
        self.responses.truncate(kept);
    }

    /// zmap-dedup: `SlidingWindow::check_and_insert` per response key.
    pub fn dedup(&mut self) {
        self.fresh.clear();
        for &key in &self.keys {
            let fresh = self.window.check_and_insert(key);
            self.fresh.push(fresh);
            if fresh {
                self.fresh_total += 1;
            } else {
                self.metrics.add(CounterId::DuplicatesSuppressed, 1);
                self.counts.duplicates += 1;
            }
        }
        self.observed += self.keys.len() as u64;
    }

    /// zmap-core: `OutputModule::record` for every fresh response that
    /// becomes a row.
    pub fn output(&mut self) -> Result<(), String> {
        for (r, &fresh) in self.responses.iter().zip(&self.fresh) {
            if !fresh {
                continue;
            }
            let success = r.kind.is_success();
            if success {
                self.metrics.add(CounterId::UniqueSuccesses, 1);
                self.counts.successes += 1;
            } else {
                self.metrics.add(CounterId::UniqueFailures, 1);
                self.counts.failures += 1;
            }
            if success || self.report_failures {
                self.out
                    .record(&ScanResult {
                        ts_ns: r.ts.saturating_sub(self.start),
                        saddr: r.ip,
                        sport: r.port,
                        classification: classify(&r.kind),
                        ttl: r.ttl,
                        success,
                    })
                    .map_err(|e| format!("data stream: {e}"))?;
                self.rows += 1;
            }
        }
        Ok(())
    }

    /// The keys the last `rtt_take` produced, in arrival order.
    pub fn batch_keys(&self) -> &[u64] {
        &self.keys
    }

    /// Responses the world has generated but not yet delivered.
    pub fn queue_depth(&self) -> u64 {
        let s = self.net.with_world(|w| w.stats());
        s.responses_generated.saturating_sub(s.frames_delivered)
    }

    pub fn now(&self) -> u64 {
        self.transport.now()
    }

    pub fn advance_to(&mut self, t: u64) {
        self.transport.advance_to(t);
    }

    /// Flushes the data file and hands back the totals.
    pub fn finish(self) -> Result<Totals, String> {
        let elements = match &self.walker {
            Walker::V4(it) => it.elements_consumed(),
            Walker::V6(it) => it.elements_consumed(),
        };
        let file = self.out.finish().map_err(|e| format!("data stream: {e}"))?;
        let out_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Totals {
            counts: self.counts,
            elements,
            frames: self.frames_total,
            observed: self.observed,
            rows: self.rows,
            out_bytes,
            evictions: self.fresh_total.saturating_sub(self.window.len() as u64),
            window_bytes: self.window.memory_bytes(),
            world_frames_sent: self.net.with_world(|w| w.stats().frames_sent),
        })
    }
}

// Micro-measurements of layers the staged replay does not isolate.

/// zmap-math by way of `Cycle::new`: picks the ladder group for
/// `target_count` and searches a generator for `seed`. Returns
/// `(nanoseconds, search attempts)`.
pub fn generator_search(target_count: u64, seed: u64) -> Result<(u64, u32), String> {
    let t0 = Instant::now();
    let group = CyclicGroup::for_target_count(target_count).map_err(|e| e.to_string())?;
    let cycle = Cycle::new(group, seed);
    let ns = t0.elapsed().as_nanos() as u64;
    black_box(cycle.generator());
    Ok((ns, cycle.search_attempts()))
}

/// zmap-targets: `Constraint::lookup` at `n` pseudorandom indices;
/// nanoseconds per lookup.
pub fn constraint_lookup_ns(c: &Constraint, n: u64, seed: u64) -> f64 {
    let count = c.allowed_count().max(1);
    let mut x = seed | 1;
    let t0 = Instant::now();
    for _ in 0..n {
        // xorshift: cheap enough not to show next to a tree descent.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        black_box(c.lookup(x % count));
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// zmap-targets: walks up to `n` targets of `plan` and nothing else;
/// nanoseconds per target.
pub fn walk_ns(plan: &Plan, scan: &Scan, n: usize) -> f64 {
    let cfg = &scan.cfg;
    let t0 = Instant::now();
    let got = match &plan.family {
        Family::V4 { gen, .. } => gen.iter_shard(cfg.shard, 0).take(n).map(black_box).count(),
        Family::V6 { space, .. } => space
            .iter_shard(cfg.shard, cfg.num_shards.max(1), 0, 1)
            .take(n)
            .map(black_box)
            .count(),
    };
    t0.elapsed().as_nanos() as f64 / got.max(1) as f64
}

/// The engine's ring depth (`TX_RING_DEPTH` in `zmap_core::parallel`).
const RING_DEPTH: usize = 4;

/// zmap-core: hands `batches` frame batches from a producer thread to a
/// consumer through one `SpscRing` and back through a second (the TX
/// pipeline's ready/recycle pair). Returns `(nanoseconds per hand-off,
/// share of push attempts that found the ring full)`.
pub fn ring_handoff(batches: u64, batch_frames: usize) -> (f64, f64) {
    let ready: SpscRing<FrameBatch> = SpscRing::with_capacity(RING_DEPTH);
    let recycle: SpscRing<FrameBatch> = SpscRing::with_capacity(RING_DEPTH);
    for _ in 0..RING_DEPTH {
        let _ = recycle.try_push(FrameBatch::new(batch_frames));
    }
    let (mut attempts, mut full) = (0u64, 0u64);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(batch) = ready.pop() {
                if recycle.push(batch).is_err() {
                    break;
                }
            }
            recycle.close();
        });
        'produce: for _ in 0..batches {
            let Some(mut batch) = recycle.pop() else {
                break;
            };
            loop {
                attempts += 1;
                match ready.try_push(batch) {
                    Ok(()) => break,
                    Err(PushError::Full(b)) => {
                        full += 1;
                        batch = b;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => break 'produce,
                }
            }
        }
        ready.close();
    });
    let ns = t0.elapsed().as_nanos() as f64 / batches.max(1) as f64;
    (ns, full as f64 / attempts.max(1) as f64)
}

/// zmap-metrics: `(CounterBank::add, SharedHistogram::record)` in
/// nanoseconds per call, one uncontended shard each.
pub fn metrics_ns(n: u64) -> (f64, f64) {
    let bank = CounterBank::new(1, 19);
    let t0 = Instant::now();
    for i in 0..n {
        bank.add(0, black_box((i % 19) as usize), 1);
    }
    let add = t0.elapsed().as_nanos() as f64 / n as f64;
    black_box(bank.sum(0));
    let hist = SharedHistogram::new(1);
    let t0 = Instant::now();
    for i in 0..n {
        hist.record(0, black_box(i.wrapping_mul(0x9E37_79B9) >> 8));
    }
    let record = t0.elapsed().as_nanos() as f64 / n as f64;
    black_box(hist.merged().count());
    (add, record)
}

/// zmap-dedup: replays `keys` through a fresh window of `capacity`,
/// timing every `check_and_insert` on its own and sorting the samples by
/// outcome. Returns `(ns per fresh insert, ns per duplicate hit)` with the
/// clock's own cost subtracted; a side with no samples reads 0.
pub fn dedup_split_ns(keys: &[u64], capacity: usize) -> (f64, f64) {
    let clock = {
        let t0 = Instant::now();
        for _ in 0..10_000 {
            black_box(Instant::now());
        }
        t0.elapsed().as_nanos() as f64 / 10_000.0
    };
    let mut window = SlidingWindow::new(capacity.max(1));
    let (mut fresh_ns, mut fresh_n, mut dup_ns, mut dup_n) = (0u64, 0u64, 0u64, 0u64);
    for &key in keys {
        let t0 = Instant::now();
        let fresh = window.check_and_insert(black_box(key));
        let ns = t0.elapsed().as_nanos() as u64;
        if fresh {
            fresh_ns += ns;
            fresh_n += 1;
        } else {
            dup_ns += ns;
            dup_n += 1;
        }
    }
    let per = |total: u64, n: u64| match n {
        0 => 0.0,
        n => (total as f64 / n as f64 - clock).max(0.0),
    };
    (per(fresh_ns, fresh_n), per(dup_ns, dup_n))
}
