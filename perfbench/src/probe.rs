//! The host-speed probe: a fixed piece of pure-Rust work, independent of
//! the program under test, timed at intervals through a run so the time
//! metrics can be stated at a reference host speed.
//!
//! On a shared 2-vCPU virtual machine the host's speed drifted by a
//! third or more over minutes: the same fixed compute loop ran 1.7
//! times faster in one half-minute than in another, and eight runs of
//! `repeat_warm` spread by 0.25 of their median on that alone. Longer
//! runs did not help: 60-second blocks of the loop spread as much as
//! 5-second ones. The probe slows with the host. Within a run its
//! per-second speed tracked the workload's throughput with a
//! correlation of 0.8 to 0.95 in most runs, and over eight runs scaling
//! by it cut the spread of `ops_per_s` by two to five times.

use std::time::Instant;

/// Probe time, in ns, that defines the reference host speed. A 2-vCPU
/// KVM guest on an Intel Xeon ran the probe in 0.47 to 0.64 ms.
pub const REF_NS: f64 = 500_000.0;

/// Words in the probe's working set: 64 KiB, so it stays in the core's
/// own caches and measures the core, not the memory system.
const WORDS: usize = 8192;
/// Random read-modify-writes per probe.
const STEPS: usize = 200_000;

/// The probe's state and its samples.
#[derive(Debug)]
pub struct Probe {
    words: Vec<u64>,
    /// Probe times, ns.
    pub samples: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            words: vec![0; WORDS],
            samples: Vec::new(),
        }
    }
}

impl Probe {
    /// Run the probe once and record its time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = &mut self.words[(x as usize) % WORDS];
            *w = w.wrapping_add(x ^ i as u64);
        }
        std::hint::black_box(&self.words);
        self.samples.push(t.elapsed().as_nanos() as u64);
    }

    /// The host's speed relative to the reference: the reference probe
    /// time over the median probe time (above 1 on a faster host). 1
    /// when nothing was sampled.
    pub fn speed(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let mut s = self.samples.clone();
        s.sort_unstable();
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2] as f64
        } else {
            (s[n / 2 - 1] + s[n / 2]) as f64 / 2.0
        };
        REF_NS / median.max(1.0)
    }
}
