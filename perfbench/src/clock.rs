//! One monotonic clock for every timestamp of a run — the harness's
//! spans and the serving layer's own clock read the same epoch, so
//! their intervals can be compared directly.

use std::rc::Rc;
use std::time::{Duration, Instant};

/// Nanoseconds since the clock's epoch.
#[derive(Debug, Clone, Copy)]
pub struct BenchClock(Instant);

impl BenchClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        BenchClock(Instant::now())
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// A shared handle the serving layer can read.
    pub fn shared(&self) -> Rc<dyn cortex_serve::Clock> {
        Rc::new(*self)
    }

    /// Waits (sleeping, then spinning) until `at` nanoseconds.
    pub fn wait_until(&self, at: u64) {
        loop {
            let now = self.ns();
            if now >= at {
                return;
            }
            let left = at - now;
            if left > 300_000 {
                std::thread::sleep(Duration::from_nanos(left - 200_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl cortex_serve::Clock for BenchClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
}
