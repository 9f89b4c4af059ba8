//! Experiment E11: the MNI multicast protocol of Fig 8 — request
//! aggregation, overlapping producer–consumer groups, and effective
//! bandwidths that back the performance model's communication constants.

use rapid_bench::{compare, run, section};
use rapid_ring::channel::FLIT_BYTES;
use rapid_ring::sim::{memory_read, multicast, unicast, RingSim};

fn main() -> std::process::ExitCode {
    run("ring_multicast", |ctx| {
        let bytes = 128 * 1024u32;

        section("E11.1 — effective unicast bandwidth");
        let mut sim = RingSim::try_new(4, 20)?;
        unicast(&mut sim, 1, 0, 2, bytes);
        let t = sim.run_until_idle(10_000_000)?;
        let bw = f64::from(bytes) / t as f64;
        compare(
            "core-to-core bandwidth",
            format!("{bw:.1} B/cycle over {t} cycles"),
            format!("{FLIT_BYTES} B/cycle link").as_str(),
        );

        section("E11.2 — multicast vs repeated unicast (0 → {1,2,3})");
        let mut mc = RingSim::try_new(4, 20)?;
        multicast(&mut mc, 9, 0, &[1, 2, 3], bytes);
        let t_mc = mc.run_until_idle(10_000_000)?;
        let mut uc = RingSim::try_new(4, 20)?;
        for (tag, c) in [(1u16, 1usize), (2, 2), (3, 3)] {
            unicast(&mut uc, tag, 0, c, bytes);
        }
        let t_uc = uc.run_until_idle(10_000_000)?;
        let (mcw, mccw) = mc.link_hops();
        let (ucw, uccw) = uc.link_hops();
        compare("multicast completion", format!("{t_mc} cycles, {} hops", mcw + mccw), "1 stream");
        compare(
            "3x unicast completion",
            format!("{t_uc} cycles, {} hops", ucw + uccw),
            "3 streams",
        );
        compare(
            "link-traffic saving",
            format!("{:.0}%", (1.0 - (mcw + mccw) as f64 / (ucw + uccw) as f64) * 100.0),
            "one flit stream serves the group",
        );

        section("E11.3 — overlapping multicast groups (0→{1,2} and 3→{1,2})");
        let mut ov = RingSim::try_new(4, 20)?;
        multicast(&mut ov, 11, 0, &[1, 2], bytes);
        multicast(&mut ov, 12, 3, &[1, 2], bytes);
        let t_ov = ov.run_until_idle(10_000_000)?;
        compare(
            "both groups complete concurrently",
            format!("{t_ov} cycles, {} B at core 1", ov.received_bytes(1)),
            "concurrent transfers between overlapping groups",
        );

        section("E11.4 — shared weights from memory (request aggregation at the memory interface)");
        let mut shared = RingSim::try_new(4, 20)?;
        memory_read(&mut shared, 7, &[0, 1, 2, 3], bytes);
        let t_sh = shared.run_until_idle(10_000_000)?;
        let mut separate = RingSim::try_new(4, 20)?;
        for (tag, c) in [(1u16, 0usize), (2, 1), (3, 2), (4, 3)] {
            memory_read(&mut separate, tag, &[c], bytes);
        }
        let t_sep = separate.run_until_idle(10_000_000)?;
        compare("aggregated multicast read", format!("{t_sh} cycles"), "scales to many cores");
        compare("4 separate reads", format!("{t_sep} cycles"), "serializes at the memory port");
        ctx.rec.metric("unicast_bw_bytes_per_cycle", bw);
        ctx.rec.metric("multicast_cycles", t_mc as f64);
        ctx.rec.metric("unicast3_cycles", t_uc as f64);
        ctx.rec.metric("link_traffic_saving", 1.0 - (mcw + mccw) as f64 / (ucw + uccw) as f64);
        ctx.rec.metric("overlapping_groups_cycles", t_ov as f64);
        ctx.rec.metric("aggregated_read_cycles", t_sh as f64);
        ctx.rec.metric("separate_read_cycles", t_sep as f64);
        Ok(())
    })
}
