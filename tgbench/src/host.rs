//! Host-speed gauge: scales the end-to-end timings to a fixed
//! reference speed of the host's CPUs.
//!
//! On the reference box (a 2-vCPU virtual machine on a shared host)
//! each vCPU switches between a fast and a slow state, the slow one up
//! to 1.8× slower, every few seconds, and the share of slow time
//! drifts over minutes. A standard run's wall time moved by up to 30 %
//! between runs of the same code for that reason alone. A gauge runs
//! one sampler thread pinned to each CPU the timed work runs on. Every
//! [`SAMPLE_EVERY`] a sampler times a small fixed sparse kernel (the
//! benchmark's own code, so a change to the program cannot change it);
//! with its untimed warm-up it pre-empts the work on that CPU for about
//! 60 µs, 1.5 % of the time.
//! [`HostGauge::scale`] is the mean of [`NOMINAL_US`] over the
//! kernel's time while a phase ran: a timing times its scale is the
//! timing at the reference speed. A faster program lowers its scaled
//! timings in proportion, because the kernel does not change. On the
//! reference box the scaled pass walls of one run varied by 1–4 %
//! where the raw ones varied by 2–10 %. The scaling assumes the
//! program slows with the host as the kernel does; raw walls and each
//! pass's scale are printed on stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference kernel's time at the reference speed, in µs. It is
/// near what the kernel read on the reference box in its steadiness
/// runs, so that scaled timings read near raw ones there.
pub const NOMINAL_US: f64 = 32.0;
/// Pause between two samples on one CPU.
const SAMPLE_EVERY: Duration = Duration::from_millis(4);
/// Side of the kernel's square grid.
const KERNEL_SIDE: usize = 64;

/// The reference kernel: a sparse (CSR) matrix-vector product with the
/// 5-point Laplacian of a [`KERNEL_SIDE`]² grid, the access pattern of
/// the program's thermal and PDN solves.
struct Kernel {
    row_start: Vec<u32>,
    column: Vec<u32>,
    value: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Kernel {
    fn new() -> Self {
        let n = KERNEL_SIDE;
        let mut kernel = Kernel {
            row_start: vec![0],
            column: Vec::new(),
            value: Vec::new(),
            x: (0..n * n).map(|i| (i % 7) as f64).collect(),
            y: vec![0.0; n * n],
        };
        for i in 0..n {
            for j in 0..n {
                let neighbours = [
                    (i > 0).then(|| (i - 1) * n + j),
                    (j > 0).then(|| i * n + j - 1),
                    Some(i * n + j),
                    (j + 1 < n).then(|| i * n + j + 1),
                    (i + 1 < n).then(|| (i + 1) * n + j),
                ];
                for (k, c) in neighbours.into_iter().enumerate() {
                    if let Some(c) = c {
                        kernel.column.push(c as u32);
                        kernel.value.push(if k == 2 { 4.0 } else { -1.0 });
                    }
                }
                kernel.row_start.push(kernel.column.len() as u32);
            }
        }
        kernel
    }

    /// `y = A x`, then `x = x / 2 + y / 1000` to keep `x` bounded.
    fn product(&mut self) {
        for (r, y) in self.y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_start[r] as usize, self.row_start[r + 1] as usize);
            *y = (lo..hi)
                .map(|k| self.value[k] * self.x[self.column[k] as usize])
                .sum();
        }
        for (x, y) in self.x.iter_mut().zip(&self.y) {
            *x = 0.5 * *x + 1e-3 * y;
        }
        std::hint::black_box(&self.x);
    }

    /// Seconds one sample, one product, takes. An untimed product
    /// first brings the kernel's data back into cache, so that the
    /// sample times the CPU and not how much of the cache the program's
    /// own work evicted.
    fn time(&mut self) -> f64 {
        self.product();
        let started = Instant::now();
        self.product();
        started.elapsed().as_secs_f64()
    }
}

/// A `cpu_set_t`: 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn thread_mask() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_thread_mask(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable `cpu_set_t` of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// The CPUs this thread may run on (CPU 0 when that is unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let cpus: Vec<usize> = thread_mask()
        .map(|mask| {
            (0..mask.len() * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        })
        .unwrap_or_default();
    if cpus.is_empty() {
        vec![0]
    } else {
        cpus
    }
}

/// Pins the calling thread to `cpu` until dropped; threads it spawns
/// meanwhile inherit the pin. Pinning that fails leaves the thread free.
pub struct Pinned(Option<CpuMask>);

pub fn pin_current_thread(cpu: usize) -> Pinned {
    let before = thread_mask();
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    Pinned(before.filter(|_| set_thread_mask(&mask)))
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(mask) = &self.0 {
            set_thread_mask(mask);
        }
    }
}

/// The sum of `NOMINAL_US / time` over the samples taken since the
/// last reading, and their number.
type Tally = Arc<Mutex<(f64, u64)>>;

/// Sampler threads, one pinned to each gauged CPU; they stop and are
/// joined when the gauge is dropped.
pub struct HostGauge {
    tally: Tally,
    last: f64,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl HostGauge {
    /// Starts sampling `cpus`: the CPUs the timed work runs on.
    pub fn start(cpus: &[usize]) -> Self {
        let tally: Tally = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let (tally, stop) = (tally.clone(), stop.clone());
                std::thread::spawn(move || {
                    let _pin = pin_current_thread(cpu);
                    let mut kernel = Kernel::new();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(SAMPLE_EVERY);
                        let us = kernel.time() * 1e6;
                        let mut tally = tally.lock().expect("gauge tally lock");
                        tally.0 += NOMINAL_US / us;
                        tally.1 += 1;
                    }
                })
            })
            .collect();
        HostGauge {
            tally,
            last: 1.0,
            stop,
            threads,
        }
    }

    /// The scale of the phase since the last reading (or the start):
    /// the mean of [`NOMINAL_US`] over each kernel time sampled
    /// meanwhile; the last scale again if no sample was taken. Work
    /// done at speed `v(t)` takes `∫ v(t) dt / v_ref` at the reference
    /// speed `v_ref`, and each sample reads `v / v_ref` as
    /// `NOMINAL_US / time`, so the mean of that ratio, not the ratio of
    /// the mean, is the scale; a sample stretched by a pre-emption then
    /// barely moves it.
    pub fn scale(&mut self) -> f64 {
        let (sum, n) = std::mem::take(&mut *self.tally.lock().expect("gauge tally lock"));
        if n > 0 {
            self.last = sum / n as f64;
        }
        self.last
    }
}

impl Drop for HostGauge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gauge_reads_the_mean_ratio_of_its_samples_and_keeps_the_last() {
        let mut gauge = HostGauge::start(&allowed_cpus()[..1]);
        std::thread::sleep(Duration::from_millis(60));
        let scale = gauge.scale();
        assert!(scale > 0.0 && scale.is_finite(), "{scale}");
        // Stop sampling: a reading without samples repeats the last.
        gauge.stop.store(true, Ordering::Relaxed);
        for thread in gauge.threads.drain(..) {
            thread.join().unwrap();
        }
        let rest = gauge.scale();
        assert_eq!(gauge.scale(), rest);
        *gauge.tally.lock().unwrap() = (NOMINAL_US / 16.0 + NOMINAL_US / 64.0, 2);
        assert_eq!(gauge.scale(), 0.5 * (NOMINAL_US / 16.0 + NOMINAL_US / 64.0));
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        let before = allowed_cpus();
        {
            let _pin = pin_current_thread(before[0]);
            assert_eq!(allowed_cpus(), vec![before[0]]);
        }
        assert_eq!(allowed_cpus(), before);
    }
}
