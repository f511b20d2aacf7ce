//! Host fingerprint for performance measurements.
//!
//! The repository benchmark (`benchmark/`) prints a [`HostFingerprint`]
//! next to every result, so a reader can tell which machine produced a
//! number before comparing it with another. The module keeps its name
//! because the benchmark imports `npfarm::benchdiff::HostFingerprint`.

/// The machine a measurement ran on: CPU model, visible core count and
/// toolchain version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// CPU model string (`model name` from `/proc/cpuinfo`).
    pub cpu_model: String,
    /// Logical core count visible to the process.
    pub cores: u64,
    /// `rustc --version` of the `rustc` on `PATH` when [`detect`] ran
    /// (not necessarily the toolchain that built the calling binary).
    ///
    /// [`detect`]: HostFingerprint::detect
    pub rustc: String,
}

impl HostFingerprint {
    /// Best-effort detection on the current machine. Each field falls
    /// back to `"unknown"` / `0` rather than erroring — a partial
    /// fingerprint beats none.
    pub fn detect() -> HostFingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(0);
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        HostFingerprint {
            cpu_model,
            cores,
            rustc,
        }
    }

    /// One-line human rendering, as the repository benchmark prints it.
    pub fn describe(&self) -> String {
        format!("{} / {} cores / {}", self.cpu_model, self.cores, self.rustc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_fills_every_field() {
        let h = HostFingerprint::detect();
        assert!(!h.cpu_model.is_empty());
        assert!(!h.rustc.is_empty());
        // `describe` is printed as one `host:` line — keep it one line.
        assert!(!h.describe().contains('\n'));
    }
}
