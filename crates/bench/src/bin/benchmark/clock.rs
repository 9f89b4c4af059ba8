//! CPU-time clocks and the host-speed probe.
//!
//! The benchmark times operations by the CPU time the program spends on
//! them rather than by the wall clock: on a shared host the wall clock also
//! counts the time other tenants' processes hold the cores, which moved
//! run medians by up to 2× between otherwise identical runs.
//!
//! CPU time still drifts with the host: other tenants' load on the shared
//! caches and memory made the same operation take up to 1.3× longer from
//! one minute to the next. [`HostSpeed`] measures that drift with a fixed
//! probe that calls nothing of the repository, run right after each timed
//! operation and set-up, and each of those times is scaled to the host
//! speed at which the probe takes [`PROBE_REF_MS`]. In sets of ten runs this
//! cut the quartile spread of the per-operation median from up to 22% to
//! 1–11%, depending on how much the host's speed moved during the set.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    pub fn read(clock: i32) -> u64 {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a live, aligned `struct timespec` for the whole
        // call, and clock_gettime writes nothing but that struct.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

/// Elsewhere both clocks fall back to the wall clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    pub const PROCESS: i32 = 0;
    pub const THREAD: i32 = 0;

    pub fn read(_clock: i32) -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// CPU time of the whole process (every thread, exited ones included), ns.
pub fn process_ns() -> u64 {
    imp::read(imp::PROCESS)
}

/// CPU time of the calling thread, ns.
pub fn thread_ns() -> u64 {
    imp::read(imp::THREAD)
}

/// Median probe time over fifty runs on the 2-core x86-64 host the
/// benchmark was defined on; scaled times read as on that host.
pub const PROBE_REF_MS: f64 = 1.25;

/// Fixed plain-Rust work that calls nothing of the repository, so no change
/// to the repository's code moves it. Its parts track the two ways the
/// host's load slowed the workloads: a dependent walk over a 1 MiB table
/// (cache and load latency) and vectorisable arithmetic on cache-resident
/// operands (a small f32 GEMM and integer rounding lanes).
struct Probe {
    table: Vec<u32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    lanes: Vec<u32>,
}

impl Probe {
    const TABLE: usize = 1 << 18;
    const N: usize = 64;

    fn new() -> Self {
        let mut x = 0x9e37_79b9u32;
        let table: Vec<u32> = (0..Self::TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let n2 = Self::N * Self::N;
        Self {
            lanes: table[..1 << 14].to_vec(),
            table,
            a: (0..n2).map(|i| (i % 13) as f32 * 0.25).collect(),
            b: (0..n2).map(|i| (i % 7) as f32 * 0.5).collect(),
            c: vec![0.0; n2],
        }
    }

    /// Runs the probe once; returns its thread CPU time, ms.
    fn run(&mut self) -> f64 {
        let t0 = thread_ns();
        let mask = (Self::TABLE - 1) as u32;
        let mut i = 1u32;
        for _ in 0..200_000 {
            i = self.table[(i & mask) as usize].wrapping_add(i);
        }
        let n = Self::N;
        for _ in 0..8 {
            self.c.fill(0.0);
            for (a_row, c_row) in self.a.chunks_exact(n).zip(self.c.chunks_exact_mut(n)) {
                for (&av, b_row) in a_row.iter().zip(self.b.chunks_exact(n)) {
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += av * bv;
                    }
                }
            }
        }
        for _ in 0..40 {
            for v in &mut self.lanes {
                let r = v.wrapping_add(0x0fff + ((*v >> 13) & 1)) & !0x1fff;
                *v = r ^ (r >> 7);
            }
        }
        std::hint::black_box((i, &self.c, &self.lanes));
        (thread_ns() - t0) as f64 / 1e6
    }
}

/// Probe times taken through a run, right after its timed parts.
pub struct HostSpeed {
    probe: Probe,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        Self { probe: Probe::new(), samples_ms: Vec::new() }
    }

    /// Runs the probe twice and keeps the second time: the first pass
    /// reloads the probe's data into the caches, so what the workload left
    /// there does not count. Returns the factor that turns a time measured
    /// just before into one on the reference host: [`PROBE_REF_MS`] over
    /// the probe's time.
    pub fn sample(&mut self) -> f64 {
        self.probe.run();
        let ms = self.probe.run().max(1e-6);
        self.samples_ms.push(ms);
        PROBE_REF_MS / ms
    }

    /// Median probe time of the run, ms.
    pub fn probe_ms(&self) -> Option<f64> {
        crate::stats::median(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_factors_scale_the_probe_time_to_the_reference() {
        let mut speed = HostSpeed::new();
        assert_eq!(speed.probe_ms(), None);
        let factors: Vec<f64> = (0..3).map(|_| speed.sample()).collect();
        assert!(factors.iter().all(|f| f.is_finite() && *f > 0.0));
        let ms = speed.probe_ms().unwrap_or(0.0);
        assert!(ms > 0.0);
        // The median sample's factor maps the median time to the reference.
        let mut sorted = factors.clone();
        sorted.sort_by(f64::total_cmp);
        assert!((sorted[1] * ms - PROBE_REF_MS).abs() < 1e-9);
    }

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let (p0, t0) = (process_ns(), thread_ns());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (p1, t1) = (process_ns(), thread_ns());
        assert!(p1 > p0 && t1 > t0, "{x}");
        std::thread::sleep(std::time::Duration::from_millis(50));
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(thread_ns() - t1 < 20_000_000, "sleeping counted as CPU time");
    }
}
