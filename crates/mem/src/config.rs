//! Memory hierarchy configuration.

use std::fmt;

/// An invalid memory-subsystem configuration parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `PortModel::Ideal(0)`.
    NoPorts,
    /// `PortModel::Banked(0)`.
    NoBanks,
    /// Bank count is not a power of two (line interleaving needs one).
    BanksNotPowerOfTwo {
        /// Offending bank count.
        banks: u32,
    },
    /// Primary-cache hit time of zero cycles.
    ZeroHitCycles,
    /// Primary-cache associativity of zero.
    ZeroAssociativity,
    /// No miss status handling registers.
    NoMshrs,
    /// Line size is zero or not a power of two (address mapping
    /// interleaves on power-of-two line boundaries).
    LineBytesNotPowerOfTwo {
        /// Offending line size.
        line_bytes: u64,
    },
    /// Capacity below one set (`line_bytes * assoc`).
    SmallerThanOneSet,
    /// More banks than cache lines.
    MoreBanksThanLines {
        /// Offending bank count.
        banks: u32,
    },
    /// Line buffer configured with zero entries.
    NoLineBufferEntries,
    /// Line-buffer entry size is zero, not a power of two, or larger than
    /// the primary-cache line.
    BadLineBufferLine {
        /// Offending entry size.
        line_bytes: u64,
    },
    /// Second-level hit time of zero cycles.
    ZeroL2HitCycles,
    /// Store buffer with zero entries.
    NoStoreBuffer,
    /// A bus bandwidth that is zero, negative, or not finite.
    BadBusBandwidth {
        /// Offending bytes-per-cycle value.
        bytes_per_cycle: f64,
    },
    /// Zero bytes fetched from memory per second-level miss.
    ZeroMemFetch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::NoPorts => f.write_str("need at least one ideal port"),
            ConfigError::NoBanks => f.write_str("need at least one bank"),
            ConfigError::BanksNotPowerOfTwo { banks } => {
                write!(f, "bank count {banks} must be a power of two")
            }
            ConfigError::ZeroHitCycles => f.write_str("L1 hit time must be at least one cycle"),
            ConfigError::ZeroAssociativity => f.write_str("L1 associativity must be at least one"),
            ConfigError::NoMshrs => f.write_str("need at least one MSHR"),
            ConfigError::LineBytesNotPowerOfTwo { line_bytes } => {
                write!(f, "line size {line_bytes} must be a non-zero power of two")
            }
            ConfigError::SmallerThanOneSet => f.write_str("L1 smaller than one set"),
            ConfigError::MoreBanksThanLines { banks } => {
                write!(f, "{banks} banks exceed the number of L1 lines")
            }
            ConfigError::NoLineBufferEntries => f.write_str("line buffer needs at least one entry"),
            ConfigError::BadLineBufferLine { line_bytes } => {
                write!(f, "line-buffer entry size {line_bytes} must be a power of two no larger than the L1 line")
            }
            ConfigError::ZeroL2HitCycles => {
                f.write_str("second-level hit time must be at least one cycle")
            }
            ConfigError::NoStoreBuffer => f.write_str("store buffer must have at least one entry"),
            ConfigError::BadBusBandwidth { bytes_per_cycle } => {
                write!(f, "bus bandwidth {bytes_per_cycle} must be positive and finite")
            }
            ConfigError::ZeroMemFetch => f.write_str("memory fetch size must be at least one byte"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How the primary data cache provides bandwidth (paper Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortModel {
    /// `n` ideal ports: independently addressed, one access each per cycle.
    Ideal(u32),
    /// `n` external banks, line-interleaved; one access per bank per cycle.
    Banked(u32),
    /// Two copies of the cache (Alpha 21164 style): two load ports; stores
    /// must write both copies and are buffered until both ports are idle.
    Duplicate,
}

impl PortModel {
    /// Peak accesses per cycle.
    pub fn peak_per_cycle(&self) -> u32 {
        match *self {
            PortModel::Ideal(n) => n,
            PortModel::Banked(n) => n,
            PortModel::Duplicate => 2,
        }
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Fails if the port or bank count is zero or a bank count is not a
    /// power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            PortModel::Ideal(0) => Err(ConfigError::NoPorts),
            PortModel::Banked(0) => Err(ConfigError::NoBanks),
            PortModel::Banked(n) if !n.is_power_of_two() => {
                Err(ConfigError::BanksNotPowerOfTwo { banks: n })
            }
            _ => Ok(()),
        }
    }
}

impl fmt::Display for PortModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PortModel::Ideal(n) => write!(f, "{n} ideal port{}", if n == 1 { "" } else { "s" }),
            PortModel::Banked(n) => write!(f, "{n}-way banked"),
            PortModel::Duplicate => f.write_str("duplicate"),
        }
    }
}

/// Line-buffer configuration (paper Section 2.3): 32 fully associative
/// entries in the load/store unit, one cache line each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineBufferConfig {
    /// Number of entries (32 in the paper).
    pub entries: usize,
    /// Bytes per entry (one primary-cache line, 32 B).
    pub line_bytes: u64,
}

impl LineBufferConfig {
    /// Validates the configuration (in isolation; [`L1Config::validate`]
    /// additionally checks the entry size against the cache line).
    ///
    /// # Errors
    ///
    /// Fails on zero entries or a non-power-of-two entry size.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 {
            return Err(ConfigError::NoLineBufferEntries);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::BadLineBufferLine { line_bytes: self.line_bytes });
        }
        Ok(())
    }
}

impl Default for LineBufferConfig {
    fn default() -> Self {
        LineBufferConfig { entries: 32, line_bytes: 32 }
    }
}

/// Primary data cache configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct L1Config {
    /// Capacity in bytes (4 KB – 1 MB in the study).
    pub size_bytes: u64,
    /// Associativity (two in the study).
    pub assoc: u32,
    /// Line size in bytes (32 in the study; 512 for the DRAM row-buffer
    /// cache).
    pub line_bytes: u64,
    /// Pipelined hit time in cycles (1–3).
    pub hit_cycles: u64,
    /// Port structure.
    pub ports: PortModel,
    /// Miss status handling registers (4 in the study).
    pub mshrs: usize,
    /// Optional line buffer in the load/store unit.
    pub line_buffer: Option<LineBufferConfig>,
}

impl L1Config {
    /// The paper's default primary cache: `size_bytes`, 2-way, 32-byte
    /// lines, 4 MSHRs.
    pub fn paper(size_bytes: u64, hit_cycles: u64, ports: PortModel) -> Self {
        L1Config {
            size_bytes,
            assoc: 2,
            line_bytes: 32,
            hit_cycles,
            ports,
            mshrs: 4,
            line_buffer: None,
        }
    }

    /// Enables the paper's 32-entry line buffer.
    pub fn with_line_buffer(mut self) -> Self {
        self.line_buffer =
            Some(LineBufferConfig { entries: 32, line_bytes: self.line_bytes.min(32) });
        self
    }

    /// Validates the primary-cache configuration.
    ///
    /// # Errors
    ///
    /// Fails on the first invalid parameter: ports, geometry (line size,
    /// associativity, capacity, bank count), MSHRs, or the line buffer.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.ports.validate()?;
        if self.hit_cycles == 0 {
            return Err(ConfigError::ZeroHitCycles);
        }
        if self.assoc == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        if self.mshrs == 0 {
            return Err(ConfigError::NoMshrs);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::LineBytesNotPowerOfTwo { line_bytes: self.line_bytes });
        }
        if self.size_bytes < self.line_bytes * u64::from(self.assoc) {
            return Err(ConfigError::SmallerThanOneSet);
        }
        if let PortModel::Banked(n) = self.ports {
            if u64::from(n) > self.size_bytes / self.line_bytes {
                return Err(ConfigError::MoreBanksThanLines { banks: n });
            }
        }
        if let Some(lb) = self.line_buffer {
            lb.validate()?;
            if lb.line_bytes > self.line_bytes {
                return Err(ConfigError::BadLineBufferLine { line_bytes: lb.line_bytes });
            }
        }
        Ok(())
    }
}

/// The level behind the primary cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SecondLevel {
    /// Off-chip SRAM secondary cache (paper default: 4 MB, 2-way, 64-byte
    /// lines, 10-cycle hit), reached over the chip↔L2 bus.
    Sram {
        /// Capacity in bytes.
        size_bytes: u64,
        /// Associativity.
        assoc: u32,
        /// Line size in bytes.
        line_bytes: u64,
        /// Hit latency in cycles.
        hit_cycles: u64,
    },
    /// On-chip DRAM cache (paper Section 2.4: 4 MB, 6–8-cycle hit, 512-byte
    /// rows, no off-chip secondary cache). Being on-die, fills do not cross
    /// the chip↔L2 bus.
    Dram {
        /// Capacity in bytes.
        size_bytes: u64,
        /// Associativity.
        assoc: u32,
        /// Row (line) size in bytes.
        line_bytes: u64,
        /// Hit latency in cycles.
        hit_cycles: u64,
    },
}

impl SecondLevel {
    /// The paper's off-chip secondary cache.
    pub fn paper_sram() -> Self {
        SecondLevel::Sram { size_bytes: 4 << 20, assoc: 2, line_bytes: 64, hit_cycles: 10 }
    }

    /// The paper's on-chip DRAM cache with the given hit time (6–8).
    pub fn paper_dram(hit_cycles: u64) -> Self {
        SecondLevel::Dram { size_bytes: 4 << 20, assoc: 2, line_bytes: 512, hit_cycles }
    }

    /// Hit latency in cycles.
    pub fn hit_cycles(&self) -> u64 {
        match *self {
            SecondLevel::Sram { hit_cycles, .. } | SecondLevel::Dram { hit_cycles, .. } => {
                hit_cycles
            }
        }
    }

    /// Tag-array geometry: `(size_bytes, assoc, line_bytes)`.
    pub fn geometry(&self) -> (u64, u32, u64) {
        match *self {
            SecondLevel::Sram { size_bytes, assoc, line_bytes, .. }
            | SecondLevel::Dram { size_bytes, assoc, line_bytes, .. } => {
                (size_bytes, assoc, line_bytes)
            }
        }
    }

    /// `true` for the on-chip DRAM cache.
    pub fn is_on_chip(&self) -> bool {
        matches!(self, SecondLevel::Dram { .. })
    }
}

/// Complete memory-subsystem configuration (paper Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Primary data cache.
    pub l1: L1Config,
    /// Second level (SRAM L2 or on-chip DRAM cache).
    pub l2: SecondLevel,
    /// Main memory access latency in cycles (60 at 200 MHz).
    pub mem_latency: u64,
    /// Processor↔L2 bandwidth in bytes per cycle (12.5 = 2.5 GB/s at
    /// 200 MHz).
    pub chip_bus_bytes_per_cycle: f64,
    /// L2↔memory bandwidth in bytes per cycle (8 = 1.6 GB/s at 200 MHz).
    pub mem_bus_bytes_per_cycle: f64,
    /// Store buffer depth (stores wait here for idle ports).
    pub store_buffer: usize,
    /// Bytes fetched from main memory per second-level miss.
    pub mem_fetch_bytes: u64,
}

impl MemConfig {
    /// The paper's SRAM memory system around a primary cache of
    /// `l1_size_bytes` with `hit_cycles` pipelined hit time and `ports`.
    pub fn paper_sram(l1_size_bytes: u64, hit_cycles: u64, ports: PortModel) -> Self {
        MemConfig {
            l1: L1Config::paper(l1_size_bytes, hit_cycles, ports),
            l2: SecondLevel::paper_sram(),
            mem_latency: 60,
            chip_bus_bytes_per_cycle: 12.5,
            mem_bus_bytes_per_cycle: 8.0,
            store_buffer: 16,
            mem_fetch_bytes: 64,
        }
    }

    /// The paper's DRAM-cache system: a 16 KB two-way 512-byte-line
    /// row-buffer cache (eight-way banked, single-cycle) over a 4 MB DRAM
    /// cache with `dram_hit_cycles` (6–8), and no off-chip L2.
    pub fn paper_dram(dram_hit_cycles: u64) -> Self {
        MemConfig {
            l1: L1Config {
                size_bytes: 16 << 10,
                assoc: 2,
                line_bytes: 512,
                hit_cycles: 1,
                ports: PortModel::Banked(8),
                mshrs: 4,
                line_buffer: None,
            },
            l2: SecondLevel::paper_dram(dram_hit_cycles),
            mem_latency: 60,
            chip_bus_bytes_per_cycle: 12.5,
            mem_bus_bytes_per_cycle: 8.0,
            store_buffer: 16,
            // A DRAM-cache miss allocates a whole 512-byte row from memory
            // (the row is the fill unit), unlike the SRAM system's 64-byte
            // L2 lines.
            mem_fetch_bytes: 512,
        }
    }

    /// Enables the line buffer on the primary cache.
    pub fn with_line_buffer(mut self) -> Self {
        self.l1.line_buffer =
            Some(LineBufferConfig { entries: 32, line_bytes: self.l1.line_bytes.min(32) });
        self
    }

    /// Overrides the second-level hit time (Figure 9 rescales the 50 ns L2
    /// into cycles as the processor cycle time changes).
    pub fn with_l2_hit_cycles(mut self, cycles: u64) -> Self {
        self.l2 = match self.l2 {
            SecondLevel::Sram { size_bytes, assoc, line_bytes, .. } => {
                SecondLevel::Sram { size_bytes, assoc, line_bytes, hit_cycles: cycles }
            }
            SecondLevel::Dram { size_bytes, assoc, line_bytes, .. } => {
                SecondLevel::Dram { size_bytes, assoc, line_bytes, hit_cycles: cycles }
            }
        };
        self
    }

    /// Overrides the main-memory latency in cycles (Figure 9 rescaling of
    /// the fixed 300 ns).
    pub fn with_mem_latency(mut self, cycles: u64) -> Self {
        self.mem_latency = cycles;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Fails with the first invalid parameter, starting with the primary
    /// cache ([`L1Config::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1.validate()?;
        if self.l2.hit_cycles() == 0 {
            return Err(ConfigError::ZeroL2HitCycles);
        }
        if self.store_buffer == 0 {
            return Err(ConfigError::NoStoreBuffer);
        }
        for bw in [self.chip_bus_bytes_per_cycle, self.mem_bus_bytes_per_cycle] {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(ConfigError::BadBusBandwidth { bytes_per_cycle: bw });
            }
        }
        if self.mem_fetch_bytes == 0 {
            return Err(ConfigError::ZeroMemFetch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_validate() {
        for hit in 1..=3 {
            for ports in [PortModel::Ideal(2), PortModel::Banked(8), PortModel::Duplicate] {
                MemConfig::paper_sram(32 << 10, hit, ports).validate().unwrap();
            }
        }
        for dram_hit in 6..=8 {
            MemConfig::paper_dram(dram_hit).validate().unwrap();
            MemConfig::paper_dram(dram_hit).with_line_buffer().validate().unwrap();
        }
    }

    #[test]
    fn port_model_peaks() {
        assert_eq!(PortModel::Ideal(3).peak_per_cycle(), 3);
        assert_eq!(PortModel::Banked(128).peak_per_cycle(), 128);
        assert_eq!(PortModel::Duplicate.peak_per_cycle(), 2);
    }

    #[test]
    fn port_model_display() {
        assert_eq!(PortModel::Ideal(1).to_string(), "1 ideal port");
        assert_eq!(PortModel::Ideal(2).to_string(), "2 ideal ports");
        assert_eq!(PortModel::Banked(8).to_string(), "8-way banked");
        assert_eq!(PortModel::Duplicate.to_string(), "duplicate");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(PortModel::Banked(3).validate().is_err());
        assert!(PortModel::Ideal(0).validate().is_err());
        let mut zero_hit = MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate);
        zero_hit.l1.hit_cycles = 0;
        let mut too_many_banks = MemConfig::paper_sram(4 << 10, 1, PortModel::Banked(8));
        too_many_banks.l1.ports = PortModel::Banked(256);
        // Construction is the only way to simulate from a config, and it
        // rejects every config that `validate` rejects.
        for c in [
            MemConfig::paper_sram(32 << 10, 1, PortModel::Banked(3)),
            MemConfig::paper_sram(32 << 10, 1, PortModel::Ideal(0)),
            zero_hit,
            too_many_banks,
        ] {
            assert!(c.validate().is_err(), "{c:?}");
            assert!(crate::MemSystem::new(c.clone()).is_err(), "MemSystem::new accepted {c:?}");
        }
    }

    #[test]
    fn dram_preset_matches_paper() {
        let c = MemConfig::paper_dram(6);
        assert_eq!(c.l1.size_bytes, 16 << 10);
        assert_eq!(c.l1.line_bytes, 512);
        assert_eq!(c.l1.hit_cycles, 1);
        assert!(c.l2.is_on_chip());
        assert_eq!(c.l2.hit_cycles(), 6);
    }

    #[test]
    fn line_buffer_entry_size_capped_at_32() {
        let c = MemConfig::paper_dram(6).with_line_buffer();
        assert_eq!(c.l1.line_buffer.unwrap().line_bytes, 32);
        let s = MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate).with_line_buffer();
        assert_eq!(s.l1.line_buffer.unwrap().line_bytes, 32);
    }

    #[test]
    fn overrides_apply() {
        let c = MemConfig::paper_sram(32 << 10, 2, PortModel::Duplicate)
            .with_l2_hit_cycles(25)
            .with_mem_latency(150);
        assert_eq!(c.l2.hit_cycles(), 25);
        assert_eq!(c.mem_latency, 150);
    }
}
