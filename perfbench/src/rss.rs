//! Resident-set figures of this process, from `/proc/self/status`.

/// A `kB` field of the process status, in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in the process status"))
}

/// Hand freed heap pages back to the system, restart the peak resident-set
/// count (`VmHWM`) from the current resident set, and return that set in
/// MiB. Called right before a timed operation, so that the peak measured
/// after it is the operation's own and not the simulator's or an earlier
/// one's, and so that every operation pays for the memory it touches.
pub fn restart_peak() -> Result<f64, String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free memory of the C
        // allocator, which the Rust allocator uses on this target.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    status_mb("VmRSS")
}

/// Peak resident set (`VmHWM`) since the last [`restart_peak`], in MiB.
pub fn peak() -> Result<f64, String> {
    status_mb("VmHWM")
}
