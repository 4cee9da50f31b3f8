//! The SGX-integrity-tree MAC binding.
//!
//! Per the paper (Fig. 3 and §III-B), the MAC of an SIT node hashes:
//! the node's address, all eight counters in the node, the corresponding
//! counter in the parent node, and — under STAR — the 10 parent-counter
//! LSBs stored in the node's MAC field (so the stored LSBs are themselves
//! integrity-protected). A user-data line's MAC hashes the data content,
//! its address, the corresponding counter in its counter block, and the
//! stored LSBs.
//!
//! Because the parent counter is an *input* to the child's MAC, the tree
//! cannot be reconstructed from its leaves — the property that defeats
//! Triad-NVM-style recovery and motivates STAR.

use crate::node::Node64;
use star_crypto::mac::{FixedMacInput, Mac54, MacKey};

/// Serialized length of a node MAC input: the domain tag and address
/// (9 bytes each), the counter list (tag, length, eight words), then the
/// parent counter and the LSBs (9 bytes each).
const NODE_MAC_INPUT_LEN: usize = 9 + 9 + (1 + 8 + 8 * 8) + 9 + 9;

/// Serialized length of a data MAC input: as a node's, with the 56-byte
/// payload (tag, length, bytes) in place of the counter list.
const DATA_MAC_INPUT_LEN: usize = 9 + 9 + (1 + 8 + 56) + 9 + 9;

/// The keyed MAC functions of the SIT, bound to one processor key.
#[derive(Debug, Clone, Copy)]
pub struct SitMac {
    key: MacKey,
}

impl SitMac {
    /// Creates the MAC engine from a processor key.
    pub fn new(key: MacKey) -> Self {
        Self { key }
    }

    /// Derives the engine from a 64-bit seed (simulation convenience).
    pub fn from_seed(seed: u64) -> Self {
        Self::new(MacKey::from_seed(seed))
    }

    /// MAC of a metadata node (counter block or SIT node).
    ///
    /// `line_addr` is the node's NVM line index, `parent_counter` the
    /// corresponding counter in its parent (or in the on-chip root for
    /// top-level nodes), and `lsb10` the parent-counter LSBs stored in the
    /// node's MAC field (zero for non-STAR schemes).
    pub fn node_mac(
        &self,
        line_addr: u64,
        counters: &[u64; 8],
        parent_counter: u64,
        lsb10: u16,
    ) -> Mac54 {
        let mut input = FixedMacInput::<NODE_MAC_INPUT_LEN>::new();
        input.u64(0x4e4f4445); // domain tag "NODE"
        input.u64(line_addr);
        input.u64s(counters);
        input.u64(parent_counter);
        input.u64(u64::from(lsb10));
        debug_assert_eq!(input.as_bytes().len(), NODE_MAC_INPUT_LEN);
        input.mac54(&self.key)
    }

    /// MAC of a node given directly (counters read from the node).
    pub fn node_mac_of(
        &self,
        line_addr: u64,
        node: &Node64,
        parent_counter: u64,
        lsb10: u16,
    ) -> Mac54 {
        self.node_mac(line_addr, node.counters(), parent_counter, lsb10)
    }

    /// Verifies a node's stored MAC against a recomputation.
    pub fn verify_node(&self, line_addr: u64, node: &Node64, parent_counter: u64) -> bool {
        let field = node.mac_field();
        self.node_mac(line_addr, node.counters(), parent_counter, field.lsb10()) == field.mac()
    }

    /// MAC of a user-data line.
    ///
    /// Hashes the (encrypted) payload, the line address, the counter in
    /// the counter block, and the stored LSBs.
    pub fn data_mac(
        &self,
        line_addr: u64,
        payload: &[u8; 56],
        parent_counter: u64,
        lsb10: u16,
    ) -> Mac54 {
        let mut input = FixedMacInput::<DATA_MAC_INPUT_LEN>::new();
        input.u64(0x44415441); // domain tag "DATA"
        input.u64(line_addr);
        input.bytes(payload);
        input.u64(parent_counter);
        input.u64(u64::from(lsb10));
        debug_assert_eq!(input.as_bytes().len(), DATA_MAC_INPUT_LEN);
        input.mac54(&self.key)
    }

    /// Verifies a data line's stored MAC.
    pub fn verify_data(
        &self,
        line_addr: u64,
        payload: &[u8; 56],
        parent_counter: u64,
        stored: crate::node::MacField,
    ) -> bool {
        self.data_mac(line_addr, payload, parent_counter, stored.lsb10()) == stored.mac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::MacField;
    use star_crypto::mac::MacInput;
    use star_rng::SimRng;

    fn engine() -> SitMac {
        SitMac::from_seed(42)
    }

    #[test]
    fn verify_accepts_correct_node() {
        let e = engine();
        let mut node = Node64::zeroed();
        node.set_counter(2, 17);
        let mac = e.node_mac_of(1000, &node, 5, 3);
        node.set_mac_field(MacField::new(mac, 3));
        assert!(e.verify_node(1000, &node, 5));
    }

    #[test]
    fn tampered_counter_is_detected() {
        let e = engine();
        let mut node = Node64::zeroed();
        let mac = e.node_mac_of(1000, &node, 5, 0);
        node.set_mac_field(MacField::new(mac, 0));
        node.set_counter(0, 1); // tamper
        assert!(!e.verify_node(1000, &node, 5));
    }

    #[test]
    fn wrong_parent_counter_is_detected() {
        let e = engine();
        let mut node = Node64::zeroed();
        let mac = e.node_mac_of(1000, &node, 5, 0);
        node.set_mac_field(MacField::new(mac, 0));
        assert!(!e.verify_node(1000, &node, 6), "replayed parent counter");
    }

    #[test]
    fn tampered_lsbs_are_detected() {
        let e = engine();
        let mut node = Node64::zeroed();
        let mac = e.node_mac_of(1000, &node, 5, 7);
        node.set_mac_field(MacField::new(mac, 8)); // LSBs flipped after MAC
        assert!(!e.verify_node(1000, &node, 5));
    }

    #[test]
    fn address_binds_the_mac() {
        let e = engine();
        let node = Node64::zeroed();
        assert_ne!(
            e.node_mac_of(1000, &node, 0, 0),
            e.node_mac_of(1001, &node, 0, 0),
            "splicing a node to another address must change its MAC"
        );
    }

    #[test]
    fn data_mac_roundtrip_and_tamper() {
        let e = engine();
        let payload = [9u8; 56];
        let mac = e.data_mac(7, &payload, 4, 2);
        let field = MacField::new(mac, 2);
        assert!(e.verify_data(7, &payload, 4, field));
        let mut bad = payload;
        bad[55] ^= 1;
        assert!(!e.verify_data(7, &bad, 4, field));
        assert!(!e.verify_data(7, &payload, 5, field));
    }

    #[test]
    fn node_and_data_domains_are_separated() {
        let e = engine();
        let node = Node64::zeroed();
        let payload = [0u8; 56];
        assert_ne!(
            e.node_mac_of(0, &node, 0, 0),
            e.data_mac(0, &payload, 0, 0),
            "a zero node must not collide with zero data"
        );
    }

    /// The node MAC built through the general [`MacInput`] builder — the
    /// serialization the fixed layout must reproduce byte for byte.
    fn node_mac_via_builder(
        key: &MacKey,
        line_addr: u64,
        counters: &[u64; 8],
        parent_counter: u64,
        lsb10: u16,
    ) -> Mac54 {
        MacInput::new()
            .u64(0x4e4f4445)
            .u64(line_addr)
            .u64s(counters)
            .u64(parent_counter)
            .u64(u64::from(lsb10))
            .mac54(key)
    }

    fn data_mac_via_builder(
        key: &MacKey,
        line_addr: u64,
        payload: &[u8; 56],
        parent_counter: u64,
        lsb10: u16,
    ) -> Mac54 {
        MacInput::new()
            .u64(0x44415441)
            .u64(line_addr)
            .bytes(payload)
            .u64(parent_counter)
            .u64(u64::from(lsb10))
            .mac54(key)
    }

    /// The fixed-layout node and data MACs equal the builder-built MACs on
    /// seeded random fields, the LSB extremes 0 and 1023, and all-ones
    /// counters.
    #[test]
    fn fixed_layout_macs_match_the_builder() {
        let mut rng = SimRng::seed_from_u64(0x7369_745f_6669_7864);
        for case in 0..512 {
            let key = MacKey::from_seed(rng.gen_u64());
            let e = SitMac::new(key);
            let line_addr = rng.gen_u64();
            let parent_counter = if case % 7 == 0 {
                u64::MAX
            } else {
                rng.gen_u64()
            };
            let lsb10 = match case % 4 {
                0 => 0,
                1 => 1023,
                _ => rng.gen_range(0..1024) as u16,
            };
            let counters: [u64; 8] = if case % 5 == 0 {
                [u64::MAX; 8]
            } else {
                core::array::from_fn(|_| rng.gen_u64())
            };
            let payload: [u8; 56] = core::array::from_fn(|_| rng.gen_u8());
            assert_eq!(
                e.node_mac(line_addr, &counters, parent_counter, lsb10),
                node_mac_via_builder(&key, line_addr, &counters, parent_counter, lsb10),
                "node MAC, case {case}"
            );
            assert_eq!(
                e.data_mac(line_addr, &payload, parent_counter, lsb10),
                data_mac_via_builder(&key, line_addr, &payload, parent_counter, lsb10),
                "data MAC, case {case}"
            );
        }
    }
}
