//! CPU affinity of the benchmark thread.
//!
//! On a shared host each core the process may use is slowed by other
//! tenants at its own times. Untraced rounds are spread round-robin over
//! the allowed cores, so each lap has a chance to run on a quiet one.

#[cfg(target_os = "linux")]
mod sys {
    /// Bytes in glibc's `cpu_set_t` (1024 CPUs).
    const MASK_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is a writable buffer of exactly `MASK_BYTES`
        // bytes; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..MASK_BYTES * 8)
            .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
            .collect()
    }

    pub fn pin(cpu: usize) -> bool {
        if cpu >= MASK_BYTES * 8 {
            return false;
        }
        let mut mask = [0u8; MASK_BYTES];
        mask[cpu / 8] |= 1 << (cpu % 8);
        // SAFETY: `mask` is a readable buffer of exactly `MASK_BYTES`
        // bytes; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

/// Moves the calling thread round-robin over the cores it was allowed
/// to use when the rotation was made.
pub struct Rotation {
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// A rotation over the calling thread's allowed cores (none where
    /// affinity is unavailable, and then [`Rotation::advance`] does
    /// nothing).
    pub fn new() -> Rotation {
        Rotation {
            cpus: sys::allowed(),
            next: 0,
        }
    }

    /// Number of cores in the rotation.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Pins the calling thread to the next core; returns it, or `None`
    /// when nothing was pinned.
    pub fn advance(&mut self) -> Option<usize> {
        if self.cpus.len() < 2 {
            return None;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        sys::pin(cpu).then_some(cpu)
    }
}
