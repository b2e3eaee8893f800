//! Processor configuration.

use std::fmt;

use hbc_isa::LatencyTable;

/// An invalid processor-configuration parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CpuConfigError {
    /// A fetch, issue, or commit width of zero.
    ZeroWidth,
    /// A reorder buffer with no entries.
    NoRobEntries,
    /// A load/store queue with no entries.
    NoLsqEntries,
    /// A load/store queue deeper than the instruction window.
    LsqExceedsRob,
}

impl fmt::Display for CpuConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuConfigError::ZeroWidth => f.write_str("pipeline widths must be non-zero"),
            CpuConfigError::NoRobEntries => f.write_str("reorder buffer needs at least one entry"),
            CpuConfigError::NoLsqEntries => {
                f.write_str("load/store queue needs at least one entry")
            }
            CpuConfigError::LsqExceedsRob => {
                f.write_str("load/store queue cannot exceed the instruction window")
            }
        }
    }
}

impl std::error::Error for CpuConfigError {}

/// Configuration of the dynamic superscalar processor (paper Figure 2).
///
/// The paper's machine: four-issue, 64-entry instruction window, 32-entry
/// load/store buffer, R10000 instruction latencies, no restriction on which
/// instruction types issue together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions fetched and dispatched per cycle.
    pub fetch_width: u32,
    /// Instructions issued to execution per cycle.
    pub issue_width: u32,
    /// Instructions retired per cycle.
    pub commit_width: u32,
    /// Reorder-buffer (instruction window) entries.
    pub rob_entries: usize,
    /// Load/store queue entries.
    pub lsq_entries: usize,
    /// Functional-unit latencies.
    pub latencies: LatencyTable,
    /// Cycles between a mispredicted branch resolving and useful fetch
    /// resuming (redirect penalty).
    pub redirect_penalty: u64,
}

impl CpuConfig {
    /// The paper's four-issue dynamic superscalar processor.
    pub fn paper() -> Self {
        CpuConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 64,
            lsq_entries: 32,
            latencies: LatencyTable::r10000(),
            redirect_penalty: 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first zero-width or zero-capacity parameter.
    pub fn validate(&self) -> Result<(), CpuConfigError> {
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err(CpuConfigError::ZeroWidth);
        }
        if self.rob_entries == 0 {
            return Err(CpuConfigError::NoRobEntries);
        }
        if self.lsq_entries == 0 {
            return Err(CpuConfigError::NoLsqEntries);
        }
        if self.lsq_entries > self.rob_entries {
            return Err(CpuConfigError::LsqExceedsRob);
        }
        Ok(())
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_mem::{MemConfig, MemSystem, PortModel};

    #[test]
    fn paper_values() {
        let c = CpuConfig::paper();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.lsq_entries, 32);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn invalid_rejected() {
        let mut no_issue = CpuConfig::paper();
        no_issue.issue_width = 0;
        let mut lsq_over_rob = CpuConfig::paper();
        lsq_over_rob.lsq_entries = 128;
        // Construction is the only way to simulate from a config, and it
        // rejects every config that `validate` rejects.
        for c in [no_issue, lsq_over_rob] {
            assert!(c.validate().is_err(), "{c:?}");
            let mem =
                MemSystem::new(MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate)).unwrap();
            assert!(
                crate::Core::new(c.clone(), mem, std::iter::empty()).is_err(),
                "Core::new accepted {c:?}"
            );
        }
    }
}
