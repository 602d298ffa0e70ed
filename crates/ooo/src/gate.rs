//! The retire gate (§IV-B): a single open/closed bit plus one key
//! register at the head of the load queue.

/// A store's key: its position in the circular SQ/SB plus the *sorting
/// bit* that disambiguates wrap-around (Buyuktosunoglu et al.). For the
/// paper's 56-entry SQ/SB this is 6 + 1 = 7 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Position bits (SQ/SB slot index).
    pub slot: u16,
    /// Sorting bit (wrap-around parity of the slot).
    pub sorting: bool,
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key({},{})", self.slot, u8::from(self.sorting))
    }
}

/// The retire gate.
///
/// The paper's design (§IV-B) is a single open/closed bit plus one key
/// register: at most one load has closed the gate, because the gate must
/// be open for that load to retire in the first place.
///
/// This implementation generalizes the register to a small queue of
/// `capacity` keys (the *multi-key gate* extension studied in
/// `results/ablation.txt`): with capacity 1 it is exactly the paper's
/// gate; with more, a retiring SLF load can pass through a closed gate
/// by depositing its own key, and the gate opens only when *every*
/// deposited key's store has written to the L1.
///
/// * A retiring SLF load whose forwarding store is still in the SQ/SB
///   *closes* the gate, locking it with a copy of the store's key.
/// * While closed, no (other) load may retire.
/// * A key is cleared when the store that matches it writes to the L1
///   (`370-SLFSoS-key`); the whole gate reopens unconditionally when the
///   store buffer drains empty (`370-SLFSoS`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetireGate {
    locked: Vec<Key>,
    capacity: usize,
}

impl RetireGate {
    /// An open gate with the paper's single key register.
    pub fn new() -> RetireGate {
        RetireGate::with_capacity(1)
    }

    /// An open gate holding up to `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> RetireGate {
        assert!(capacity > 0, "gate needs at least one key register");
        RetireGate {
            locked: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// `true` while the gate is closed (any key outstanding).
    pub fn is_closed(&self) -> bool {
        !self.locked.is_empty()
    }

    /// The oldest key that locked the gate, if closed.
    pub fn locking_key(&self) -> Option<Key> {
        self.locked.first().copied()
    }

    /// `true` when another key can be deposited (an SLF load may retire
    /// through the closed gate in the multi-key extension).
    pub fn has_space(&self) -> bool {
        self.locked.len() < self.capacity
    }

    /// Closes the gate with `key`.
    ///
    /// # Panics
    ///
    /// Panics if all key registers are occupied — the caller must check
    /// [`RetireGate::has_space`] (with the paper's capacity 1 this means
    /// only closing an open gate).
    pub fn close(&mut self, key: Key) {
        assert!(self.has_space(), "retire gate closed twice");
        self.locked.push(key);
    }

    /// A store with `key` wrote to the L1: clears the matching key.
    /// Returns `true` when this unlock opened the gate (a key was
    /// cleared and none remain).
    pub fn try_unlock(&mut self, key: Key) -> bool {
        let before = self.locked.len();
        self.locked.retain(|k| *k != key);
        before != self.locked.len() && self.locked.is_empty()
    }

    /// Unconditionally reopens (the `370-SLFSoS` SB-drained-empty rule).
    pub fn force_open(&mut self) {
        self.locked.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(slot: u16, sorting: bool) -> Key {
        Key { slot, sorting }
    }

    #[test]
    fn open_by_default() {
        let g = RetireGate::new();
        assert!(!g.is_closed());
        assert_eq!(g.locking_key(), None);
    }

    #[test]
    fn close_then_unlock_with_matching_key() {
        let mut g = RetireGate::new();
        g.close(key(5, false));
        assert!(g.is_closed());
        assert!(!g.has_space(), "capacity-1 gate is full once closed");
        assert_eq!(g.locking_key(), Some(key(5, false)));
        assert!(!g.try_unlock(key(6, false)), "wrong slot");
        assert!(!g.try_unlock(key(5, true)), "wrong sorting bit");
        assert!(g.is_closed());
        assert!(g.try_unlock(key(5, false)));
        assert!(!g.is_closed());
    }

    #[test]
    fn multi_key_gate_opens_when_all_keys_clear() {
        let mut g = RetireGate::with_capacity(2);
        g.close(key(1, false));
        assert!(g.has_space());
        g.close(key(2, false));
        assert!(!g.has_space());
        assert!(!g.try_unlock(key(1, false)), "one key still outstanding");
        assert!(g.is_closed());
        assert!(g.try_unlock(key(2, false)));
        assert!(!g.is_closed());
    }

    #[test]
    fn sorting_bit_disambiguates_wraparound() {
        let mut g = RetireGate::new();
        // A store at slot 3 of the next wrap-around generation must not
        // open a gate locked by the previous generation's slot 3.
        g.close(key(3, false));
        assert!(!g.try_unlock(key(3, true)));
        assert!(g.try_unlock(key(3, false)));
    }

    #[test]
    fn force_open_clears_lock() {
        let mut g = RetireGate::new();
        g.close(key(1, true));
        g.force_open();
        assert!(!g.is_closed());
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn double_close_panics() {
        let mut g = RetireGate::new();
        g.close(key(0, false));
        g.close(key(1, false));
    }

    #[test]
    fn unlock_open_gate_is_false() {
        let mut g = RetireGate::new();
        assert!(!g.try_unlock(key(0, false)));
    }
}
