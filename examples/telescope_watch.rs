#![allow(clippy::print_stdout)]
//! Watching scanners from a network telescope (§2.1's methodology).
//!
//! ```text
//! cargo run --release --example telescope_watch
//! ```
//!
//! Generates one quarter of the simulated scanner population (ZMap,
//! Masscan, forks, everything else), lands a sample of their probe
//! packets on a darknet, and runs the attribution pipeline: flows
//! hitting ≥10 dark IPs are scans; tools are identified from wire
//! fingerprints (ZMap's static IP ID 54321, Masscan's
//! destination-derived ID).

use std::net::Ipv4Addr;
use zmap::netsim::population::{PopulationModel, Quarter};
use zmap::telescope::aggregate::{PortReport, QuarterReport};
use zmap::telescope::detector::ScanDetector;

fn main() {
    let q = Quarter { year: 2024, q: 1 };
    let model = PopulationModel::default();
    let instances = model.instances(q);
    println!("{} scanner instances active in {q}", instances.len());

    // The darknet: 198.18.0.0/16 (benchmark space reused as a telescope).
    let mut detector = ScanDetector::new();
    let mut frames = 0u64;
    for inst in &instances {
        // Each instance lands `packets` probes on the telescope; sample
        // up to 200 per instance to keep the example fast (sampling a
        // flow uniformly does not change its attribution).
        let n = inst.packets.min(200);
        for i in 0..n {
            let dark = Ipv4Addr::from(0xC6120000u32 | (zmap::netsim::hash3(inst.seed, i as u32, 1) as u32 & 0xFFFF));
            let frame = inst.probe_frame(dark, i);
            detector.ingest_frame(&frame);
            frames += 1;
        }
    }

    let scans = detector.scans();
    let report = QuarterReport::from_scans(q.to_string(), &scans);
    let mut ports = PortReport::default();
    ports.add_scans(&scans);

    println!("telescope saw {frames} packets, detected {} scans", scans.len());
    println!(
        "ZMap share of scan packets: {:.1}% (paper, 2024Q1: 35.4%)",
        100.0 * report.zmap_share()
    );
    println!("\ntop 8 scanned ports (all tools):");
    for (port, c) in ports.top_ports_all(8) {
        println!(
            "  tcp/{port:<5} {:>8} packets  ({:>5.1}% from ZMap)",
            c.total,
            100.0 * c.zmap as f64 / c.total.max(1) as f64
        );
    }
    println!("\nper-port ZMap shares the paper highlights:");
    for port in [23u16, 80, 8080, 8728] {
        println!(
            "  tcp/{port:<5} {:>5.1}%",
            100.0 * ports.zmap_share_of_port(port)
        );
    }
}
