//! GPU physical address mapping (Section II-C of the paper).
//!
//! The mapping implements all three properties the paper describes:
//!
//! 1. consecutive cache lines map to the same row of the same bank (within a
//!    256 B block) to promote row-buffer locality;
//! 2. blocks of consecutive cache lines are interleaved across channels at
//!    256 B granularity, and across banks as the per-channel stream advances;
//! 3. two anti-camping hashes:
//!    * the channel is `{addr[47:11] : (addr[10:8] XOR addr[13:11])} % 6`
//!      (verbatim from the paper),
//!    * the bank index is XOR-ed with low-order row bits (the
//!      permutation-based interleaving of Zhang et al. \[53\]).
//!
//! Decomposition pipeline for a byte address (shown for the GDDR5 Table II
//! geometry; every shift below is derived from the device config, so the
//! same pipeline serves the GDDR3/GDDR6/HBM presets):
//!
//! ```text
//! b = addr >> 8                      256 B block index
//! channel = {b[44:3] : (b[2:0] XOR b[5:3])} % C     (paper's XOR hash)
//! l = b / C                          per-channel local block index
//! col  = { l[2:0], addr[7] }         16 x 128 B lines per 2 KB row
//! bank = (l[6:3] XOR l[13:10]) & 15  permutation-based bank hash
//! row  = l[19:7]                     8192 rows per bank
//! ```
//!
//! Generalised, with `R = row_bytes/256` blocks per row and `B` banks:
//! `col = { l mod R , sub-block line }`, `bank = (l >> log2 R) XOR
//! (l >> (log2 R + log2 B + log2 R)) mod B`, `row = (l >> (log2 R +
//! log2 B)) mod 2^13`. The 256 B channel-interleave block and the 13 kept
//! row bits are fixed across presets; everything else is config.
//!
//! Because the channel index is a hash-plus-modulo, the map is not
//! injective per channel (distinct blocks can alias onto the same
//! (channel, bank, row, col)); a timing model only needs the forward map to
//! be consistent and well distributed, which the tests below check.

use crate::config::{MemConfig, MAX_BANKS, MAX_CHANNELS};
use crate::ids::{BankId, ChannelId};

/// Channel-interleave granularity (fixed across presets, per the paper).
const BLOCK_SHIFT: u32 = 8;
/// Number of row-address bits kept (8192 rows per bank on Table II).
const ROW_BITS: u32 = 13;

/// A fully decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    pub channel: ChannelId,
    pub bank: BankId,
    /// Bank group index within the channel.
    pub bank_group: u8,
    pub row: u32,
    /// Column address in cache-line units within the row.
    pub col: u16,
}

/// Decodes byte addresses into (channel, bank, row, column) using the
/// paper's hashing scheme, parameterised by the device geometry in
/// [`MemConfig`].
///
/// ```
/// use ldsim_types::addr::AddressMapper;
/// use ldsim_types::config::MemConfig;
///
/// let m = AddressMapper::new(&MemConfig::default(), 128);
/// let a = m.decode(0x1000_0000);
/// let b = m.decode(0x1000_0080); // next line, same 256 B block
/// assert_eq!(a.channel, b.channel);
/// assert_eq!(a.bank, b.bank);
/// assert_eq!(a.row, b.row);      // consecutive lines share a DRAM row
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    num_channels: u64,
    num_banks: u64,
    banks_per_group: u64,
    /// log2(line size)
    line_shift: u32,
    /// log2(lines per 256 B interleave block)
    sub_bits: u32,
    /// log2(256 B blocks per DRAM row)
    bank_shift: u32,
    /// log2(banks per channel)
    bank_bits: u32,
    /// number of row bits kept
    row_mask: u32,
}

impl AddressMapper {
    /// Every machine a simulation builds passes through here, so this is
    /// where its geometry is checked: a geometry the mapper or a controller
    /// cannot serve panics with a named message.
    pub fn new(mem: &MemConfig, line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line_bytes must be a power of two"
        );
        assert!(
            line_bytes <= (1 << BLOCK_SHIFT),
            "line must fit in the 256 B channel-interleave block"
        );
        assert!(
            mem.banks_per_channel.is_power_of_two(),
            "banks_per_channel must be a power of two"
        );
        // A controller keeps one bit per bank in its ready masks, and
        // channel ids are bytes.
        assert!(
            mem.banks_per_channel <= MAX_BANKS,
            "banks_per_channel must be at most {MAX_BANKS}"
        );
        assert!(
            (1..=MAX_CHANNELS).contains(&mem.num_channels),
            "num_channels must be 1 to {MAX_CHANNELS}"
        );
        assert!(
            mem.banks_per_channel.is_multiple_of(mem.banks_per_group),
            "banks_per_group must divide banks_per_channel"
        );
        let blocks_per_row = mem.row_bytes >> BLOCK_SHIFT;
        assert!(
            blocks_per_row >= 1 && blocks_per_row.is_power_of_two(),
            "row_bytes must be a power-of-two multiple of 256"
        );
        let line_shift = line_bytes.trailing_zeros();
        Self {
            num_channels: mem.num_channels as u64,
            num_banks: mem.banks_per_channel as u64,
            banks_per_group: mem.banks_per_group as u64,
            line_shift,
            sub_bits: BLOCK_SHIFT - line_shift,
            bank_shift: blocks_per_row.trailing_zeros(),
            bank_bits: mem.banks_per_channel.trailing_zeros(),
            row_mask: (1 << ROW_BITS) - 1,
        }
    }

    /// The 128 B line address (byte address >> 7).
    #[inline]
    pub fn line_addr(&self, byte_addr: u64) -> u64 {
        byte_addr >> self.line_shift
    }

    /// The paper's channel hash over the 256 B block index.
    #[inline]
    fn channel_of_block(&self, b: u64) -> u64 {
        let ch_low = (b & 0x7) ^ ((b >> 3) & 0x7);
        let ch_high = b >> 3;
        ((ch_high << 3) | ch_low) % self.num_channels
    }

    /// Decode a byte address.
    #[inline]
    pub fn decode(&self, byte_addr: u64) -> DecodedAddr {
        let b = byte_addr >> BLOCK_SHIFT;
        let channel = self.channel_of_block(b);
        let l = b / self.num_channels;
        let sub = (byte_addr >> self.line_shift) & ((1 << self.sub_bits) - 1);
        let col = (((l & ((1 << self.bank_shift) - 1)) as u16) << self.sub_bits) | sub as u16;
        let row_shift = self.bank_shift + self.bank_bits;
        let bank = (((l >> self.bank_shift) ^ (l >> (row_shift + self.bank_shift)))
            & (self.num_banks - 1)) as u8;
        let row = ((l >> row_shift) as u32) & self.row_mask;
        DecodedAddr {
            channel: ChannelId(channel as u8),
            bank: BankId(bank),
            bank_group: (bank as u64 / self.banks_per_group) as u8,
            row,
            col,
        }
    }

    /// Enumerate byte addresses of lines in the same (channel, bank, row) as
    /// `byte_addr` — the other columns of its DRAM row. Used by the workload
    /// generators to synthesise intra-warp row locality. The channel hash is
    /// not invertible in closed form, so this searches the candidate blocks
    /// (block-columns x C channel residues) and keeps those that land on
    /// the original channel.
    pub fn same_row_lines(&self, byte_addr: u64) -> Vec<u64> {
        let d = self.decode(byte_addr);
        let b = byte_addr >> BLOCK_SHIFT;
        let l = b / self.num_channels;
        let blocks_per_row = 1u64 << self.bank_shift;
        let lines_per_block = 1u64 << self.sub_bits;
        let l_base = l & !(blocks_per_row - 1);
        let mut out = Vec::with_capacity((blocks_per_row * lines_per_block) as usize);
        for v in 0..blocks_per_row {
            let l2 = l_base | v;
            for r in 0..self.num_channels {
                let b2 = l2 * self.num_channels + r;
                if self.channel_of_block(b2) == d.channel.0 as u64 {
                    for sub in 0..lines_per_block {
                        out.push((b2 << BLOCK_SHIFT) | (sub << self.line_shift));
                    }
                    break; // one block per block-column suffices
                }
            }
        }
        out
    }

    pub fn num_channels(&self) -> usize {
        self.num_channels as usize
    }

    pub fn num_banks(&self) -> usize {
        self.num_banks as usize
    }
}

impl DecodedAddr {
    /// Same (channel, bank, row)? Two such requests are row-buffer hits with
    /// respect to each other.
    #[inline]
    pub fn same_row(&self, other: &DecodedAddr) -> bool {
        self.channel == other.channel && self.bank == other.bank && self.row == other.row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemConfig, Preset};

    fn mapper() -> AddressMapper {
        AddressMapper::new(&MemConfig::default(), 128)
    }

    #[test]
    fn consecutive_lines_share_row_and_bank_within_block() {
        let m = mapper();
        let a = m.decode(0x1000_0000);
        let b = m.decode(0x1000_0080);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_ne!(a.col, b.col);
    }

    #[test]
    fn consecutive_blocks_rotate_channels() {
        let m = mapper();
        let chans: std::collections::HashSet<u8> = (0..8u64)
            .map(|i| m.decode(0x2000_0000 + i * 256).channel.0)
            .collect();
        assert!(chans.len() >= 4, "blocks should spread channels: {chans:?}");
    }

    #[test]
    fn decode_stays_in_range() {
        let m = mapper();
        for i in 0..10_000u64 {
            let d = m.decode(i * 131); // odd stride
            assert!((d.channel.0 as usize) < 6);
            assert!((d.bank.0 as usize) < 16);
            assert!((d.bank_group as usize) < 4);
            assert!(d.col < 16);
        }
    }

    #[test]
    fn generalised_decode_matches_legacy_gdd5_formulas() {
        // The shifts are now derived from the config; this pins them to the
        // hand-written Table II constants the cell cache was keyed on.
        let m = mapper();
        let mut x = 0xDEAD_BEEF_1234u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x & 0x7FFF_FFFF;
            let d = m.decode(addr);
            let b = addr >> 8;
            let l = b / 6;
            let col = ((((l & 0x7) as u16) << 1) | (((addr >> 7) & 0x1) as u16)) & 0xF;
            let bank = (((l >> 3) ^ (l >> 10)) & 15) as u8;
            let row = ((l >> 7) as u32) & 0x1FFF;
            assert_eq!(d.col, col, "col diverged for {addr:#x}");
            assert_eq!(d.bank.0, bank, "bank diverged for {addr:#x}");
            assert_eq!(d.row, row, "row diverged for {addr:#x}");
        }
    }

    #[test]
    fn channel_xor_spreads_2kb_strides() {
        // A 2KB stride keeps addr[10:8] constant; without the XOR with
        // addr[13:11] every access would camp on one channel.
        let m = mapper();
        let chans: std::collections::HashSet<u8> =
            (0..64u64).map(|i| m.decode(i * 2048).channel.0).collect();
        assert!(chans.len() >= 4, "2KB stride camped: {chans:?}");
    }

    #[test]
    fn bank_hash_spreads_row_strides() {
        // Strides of one row (2KB x 6 channels x ... ): walking rows with a
        // fixed pre-hash bank index must still spread banks via the XOR.
        let m = mapper();
        // l advances by 128 per step (row bit 0), keeping l[6:3] = 0.
        let banks: std::collections::HashSet<u8> = (0..64u64)
            .map(|i| m.decode(i * 128 * 6 * 256).bank.0)
            .collect();
        assert!(banks.len() >= 8, "row stride camped on banks: {banks:?}");
    }

    #[test]
    fn bank_group_partitioning() {
        let m = mapper();
        let d = m.decode(0x40_0000);
        assert_eq!(d.bank_group, d.bank.0 / 4);
    }

    #[test]
    fn distribution_roughly_uniform() {
        let m = mapper();
        let mut ch_counts = [0usize; 6];
        let mut bank_counts = [0usize; 16];
        let n = 60_000u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let d = m.decode(x & 0x3FFF_FFFF);
            ch_counts[d.channel.0 as usize] += 1;
            bank_counts[d.bank.0 as usize] += 1;
        }
        let fair_ch = n as usize / 6;
        for (c, &cnt) in ch_counts.iter().enumerate() {
            assert!(
                cnt > fair_ch / 2 && cnt < fair_ch * 2,
                "channel {c} unbalanced: {cnt} vs fair {fair_ch}"
            );
        }
        let fair_b = n as usize / 16;
        for (b, &cnt) in bank_counts.iter().enumerate() {
            assert!(
                cnt > fair_b / 2 && cnt < fair_b * 2,
                "bank {b} unbalanced: {cnt} vs fair {fair_b}"
            );
        }
    }

    #[test]
    fn same_row_lines_really_share_the_row() {
        let m = mapper();
        let mut x = 0x1234_5678_9ABCu64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x & 0x3FFF_FF80;
            let d = m.decode(addr);
            let lines = m.same_row_lines(addr);
            assert!(lines.len() >= 4, "too few same-row lines for {addr:#x}");
            let mut cols = std::collections::HashSet::new();
            for a in lines {
                let d2 = m.decode(a);
                assert_eq!(d2.channel, d.channel);
                assert_eq!(d2.bank, d.bank);
                assert_eq!(d2.row, d.row);
                cols.insert(d2.col);
            }
            assert!(cols.len() >= 4, "columns should vary");
        }
    }

    #[test]
    fn same_row_predicate() {
        let m = mapper();
        let a = m.decode(0x40_0000);
        let b = m.decode(0x40_0080);
        assert!(a.same_row(&b));
    }

    fn mem_with(
        num_channels: usize,
        banks_per_channel: usize,
        banks_per_group: usize,
    ) -> MemConfig {
        MemConfig {
            num_channels,
            banks_per_channel,
            banks_per_group,
            ..MemConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "num_channels must be 1 to 256")]
    fn more_channels_than_a_byte_names_are_rejected() {
        AddressMapper::new(&mem_with(257, 16, 4), 128);
    }

    #[test]
    #[should_panic(expected = "banks_per_channel must be at most 64")]
    fn more_banks_than_a_ready_mask_holds_are_rejected() {
        AddressMapper::new(&mem_with(6, 128, 4), 128);
    }

    #[test]
    #[should_panic(expected = "banks_per_group must divide banks_per_channel")]
    fn bank_groups_that_do_not_divide_the_banks_are_rejected() {
        AddressMapper::new(&mem_with(6, 16, 3), 128);
    }

    #[test]
    fn the_largest_geometry_constructs() {
        let m = AddressMapper::new(&mem_with(256, 64, 4), 128);
        assert_eq!((m.num_channels(), m.num_banks()), (256, 64));
    }

    #[test]
    fn preset_mappers_decode_in_range_and_spread() {
        for p in Preset::ALL {
            let (mem, _) = p.mem_and_clock();
            let m = AddressMapper::new(&mem, 128);
            let cols_per_row = (mem.row_bytes / 128) as u16;
            let groups = mem.banks_per_channel / mem.banks_per_group;
            let mut chans = std::collections::HashSet::new();
            let mut banks = std::collections::HashSet::new();
            let mut x = 0x5DEE_CE66_ED51u64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let d = m.decode(x & 0x3FFF_FFFF);
                assert!((d.channel.0 as usize) < mem.num_channels, "{}", p.name());
                assert!((d.bank.0 as usize) < mem.banks_per_channel, "{}", p.name());
                assert!((d.bank_group as usize) < groups, "{}", p.name());
                assert!(d.col < cols_per_row, "{}", p.name());
                chans.insert(d.channel.0);
                banks.insert(d.bank.0);
            }
            assert_eq!(
                chans.len(),
                mem.num_channels,
                "{} channels unused",
                p.name()
            );
            assert_eq!(
                banks.len(),
                mem.banks_per_channel,
                "{} banks unused",
                p.name()
            );
        }
    }

    #[test]
    fn preset_same_row_lines_share_the_row() {
        for p in Preset::ALL {
            let (mem, _) = p.mem_and_clock();
            let m = AddressMapper::new(&mem, 128);
            let addr = 0x40_0000u64;
            let d = m.decode(addr);
            let lines = m.same_row_lines(addr);
            assert!(lines.len() >= 4, "{}: too few lines", p.name());
            for a in lines {
                assert!(
                    m.decode(a).same_row(&d),
                    "{}: {a:#x} left the row",
                    p.name()
                );
            }
        }
    }
}
