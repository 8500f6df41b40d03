//! Return address stack (RAS).
//!
//! A small circular stack of predicted return addresses. Overflow wraps
//! (oldest entries are overwritten); underflow predicts nothing.

use mlpwin_isa::Addr;

/// The return address stack.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    slots: Vec<Addr>,
    top: usize,
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates an empty RAS with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        assert!(capacity > 0, "RAS needs at least one slot");
        ReturnAddressStack {
            slots: vec![0; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Pushes a return address (on a call).
    pub fn push(&mut self, addr: Addr) {
        self.slots[self.top] = addr;
        self.top = (self.top + 1) % self.slots.len();
        self.depth = (self.depth + 1).min(self.slots.len());
    }

    /// Pops the predicted return address (on a return), or `None` when the
    /// stack has underflowed.
    pub fn pop(&mut self) -> Option<Addr> {
        if self.depth == 0 {
            return None;
        }
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.depth -= 1;
        Some(self.slots[self.top])
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.depth
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Serializes the stack contents and cursor.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        mlpwin_isa::snap::Snap::save(&self.slots, w);
        w.put_usize(self.top);
        w.put_usize(self.depth);
    }

    /// Restores the state written by [`ReturnAddressStack::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        let slots: Vec<u64> = mlpwin_isa::snap::Snap::load(r)?;
        if slots.len() != self.slots.len() {
            return Err(mlpwin_isa::snap::SnapError::Mismatch { what: "RAS depth" });
        }
        let top = r.get_usize()?;
        let depth = r.get_usize()?;
        if top >= slots.len() || depth > slots.len() {
            return Err(mlpwin_isa::snap::SnapError::Mismatch { what: "RAS cursor" });
        }
        self.slots = slots;
        self.top = top;
        self.depth = depth;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(0x10);
        ras.push(0x20);
        assert_eq!(ras.pop(), Some(0x20));
        assert_eq!(ras.pop(), Some(0x10));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_wraps_keeping_newest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(0x1);
        ras.push(0x2);
        ras.push(0x3); // overwrites 0x1
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(0x3));
        assert_eq!(ras.pop(), Some(0x2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn empty_and_len_track_state() {
        let mut ras = ReturnAddressStack::new(3);
        assert!(ras.is_empty());
        ras.push(0x5);
        assert!(!ras.is_empty());
        assert_eq!(ras.len(), 1);
        let _ = ras.pop();
        assert!(ras.is_empty());
    }
}
