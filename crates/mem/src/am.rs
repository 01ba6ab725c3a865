//! The attraction memory (AM): a node's local memory organised as a cache
//! of the shared address space.
//!
//! Paper configuration: 8 MB per node, 16-way set-associative, allocated in
//! 16 KB pages; each page holds 128 items of 128 bytes. "When a processor
//! references an address not found in its AM, a *page* is allocated. The
//! contents of the newly created page are filled as needed, one *item* at a
//! time." Coherence state is kept per item ([`ItemSlot`]).
//!
//! The AM has no backing store — replacement of copies that may be the last
//! (masters) or that are recovery data (CK states) must go through the
//! *injection* mechanism implemented in the protocol engine; this module
//! only exposes the acceptance test ([`AttractionMemory::injection_acceptance`]).

use crate::addr::{ItemId, NodeId, PageId, ITEMS_PER_PAGE, PAGE_BYTES};
use crate::state::ItemState;

/// Geometry of an attraction memory.
///
/// # Example
///
/// ```
/// use ftcoma_mem::AmGeometry;
///
/// let g = AmGeometry::ksr1();
/// assert_eq!(g.frames(), 512);
/// assert_eq!(g.sets(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmGeometry {
    /// Total AM capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity in page frames per set.
    pub ways: usize,
}

impl AmGeometry {
    /// The paper's configuration: 8 MB, 16-way, 16 KB pages.
    pub fn ksr1() -> Self {
        Self {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 16,
        }
    }

    /// Total number of page frames.
    pub fn frames(&self) -> usize {
        (self.capacity_bytes / PAGE_BYTES) as usize
    }

    /// Number of associative sets.
    pub fn sets(&self) -> usize {
        self.frames() / self.ways
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an integral number of sets of pages.
    pub fn validate(&self) {
        assert!(self.ways > 0, "AM must have at least one way");
        assert!(
            self.capacity_bytes.is_multiple_of(PAGE_BYTES),
            "AM capacity not a multiple of the page size"
        );
        assert!(
            self.frames().is_multiple_of(self.ways),
            "frame count not divisible by associativity"
        );
    }
}

impl Default for AmGeometry {
    fn default() -> Self {
        Self::ksr1()
    }
}

/// One item slot within an allocated AM page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ItemSlot {
    /// Coherence state of the copy held here.
    pub state: ItemState,
    /// Modelled payload: the item's version value (see crate docs).
    pub value: u64,
    /// For CK-state copies: the node holding the sibling recovery replica.
    pub partner: Option<NodeId>,
    /// Recovery-point generation this CK copy belongs to (diagnostics and
    /// invariant checks).
    pub ckpt_gen: u64,
}

#[derive(Debug, Clone)]
struct PageFrame {
    page: PageId,
    slots: Box<[ItemSlot]>,
    lru: u64,
}

impl PageFrame {
    fn new(page: PageId, lru: u64) -> Self {
        Self {
            page,
            slots: vec![ItemSlot::default(); ITEMS_PER_PAGE as usize].into(),
            lru,
        }
    }
}

/// Why an AM accepts — or refuses — an injected item copy.
///
/// Per the paper: "to accept an injection, an AM can only replace one of its
/// *Invalid* or *Shared* lines"; otherwise the injection is forwarded along
/// the logical ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionAccept {
    /// The item's page is allocated here and its slot is free.
    ReplaceInvalid,
    /// The item's page is allocated here and its slot holds a plain shared
    /// copy, which may be dropped (the incoming copy replaces it).
    ReplaceShared,
    /// The page is not allocated here but a free frame exists in its set;
    /// accepting requires allocating the page first.
    NewPage,
    /// The page is not allocated and the set is full, but the given
    /// resident page holds only Invalid/Shared copies and can be dropped
    /// to make room ("an AM can only replace one of its Invalid or Shared
    /// lines").
    ReplacePage(PageId),
    /// This AM cannot accept the injection (slot holds an unreplaceable
    /// copy, or the set is full of unreplaceable pages).
    Reject,
}

/// Error returned when a page cannot be allocated without evicting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetFull {
    /// The page whose allocation failed.
    pub page: PageId,
    /// The least-recently-used page in the target set — the natural
    /// eviction victim.
    pub victim: PageId,
}

impl std::fmt::Display for SetFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AM set full allocating {}; LRU victim {}",
            self.page, self.victim
        )
    }
}

impl std::error::Error for SetFull {}

/// An attraction memory.
///
/// # Example
///
/// ```
/// use ftcoma_mem::{AttractionMemory, ItemState};
/// use ftcoma_mem::addr::ItemId;
///
/// let mut am = AttractionMemory::ksr1();
/// let item = ItemId::new(42);
/// am.allocate_page(item.page()).unwrap();
/// am.install(item, ItemState::Exclusive, 7, None);
/// assert_eq!(am.state(item), ItemState::Exclusive);
/// assert_eq!(am.slot(item).unwrap().value, 7);
/// ```
#[derive(Debug, Clone)]
pub struct AttractionMemory {
    geo: AmGeometry,
    sets: Vec<Vec<Option<PageFrame>>>,
    /// Flat page index: `index[page]` is `way + 1` of the frame holding
    /// the page (0 = not allocated; the set is implied by the page
    /// number). The workload address space is dense and small — shared
    /// region first, then the per-node private regions — so a
    /// direct-indexed vector replaces the old `HashMap<PageId, _>` on the
    /// per-reference lookup path. Grown on demand.
    index: Vec<u32>,
    /// Cached `geo.sets()`: the geometry recomputes it with divisions,
    /// which is too slow for the per-reference lookup path.
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two, else 0
    /// (falls back to the modulo in `set_of`).
    set_mask: u64,
    tick: u64,
    allocated: usize,
    peak_allocated: usize,
}

impl AttractionMemory {
    /// Creates an empty AM with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent.
    pub fn new(geo: AmGeometry) -> Self {
        geo.validate();
        let sets = (0..geo.sets())
            .map(|_| (0..geo.ways).map(|_| None).collect())
            .collect();
        let num_sets = geo.sets() as u64;
        Self {
            geo,
            sets,
            index: Vec::new(),
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets - 1
            } else {
                0
            },
            tick: 0,
            allocated: 0,
            peak_allocated: 0,
        }
    }

    /// Creates an empty AM with the paper's 8 MB geometry.
    pub fn ksr1() -> Self {
        Self::new(AmGeometry::ksr1())
    }

    /// The AM geometry.
    pub fn geometry(&self) -> &AmGeometry {
        &self.geo
    }

    #[inline]
    fn set_of(&self, page: PageId) -> usize {
        if self.set_mask != 0 {
            (page.index() & self.set_mask) as usize
        } else {
            (page.index() % self.num_sets) as usize
        }
    }

    /// The `(set, way)` of the frame holding `page`, if allocated.
    #[inline]
    fn frame_pos(&self, page: PageId) -> Option<(usize, usize)> {
        match self.index.get(page.index() as usize) {
            Some(&way) if way != 0 => Some((self.set_of(page), (way - 1) as usize)),
            _ => None,
        }
    }

    /// Is `page` allocated in this AM?
    pub fn has_page(&self, page: PageId) -> bool {
        self.frame_pos(page).is_some()
    }

    /// Number of currently allocated pages.
    pub fn allocated_pages(&self) -> usize {
        self.allocated
    }

    /// High-water mark of allocated pages (Fig. 7's memory-overhead metric).
    pub fn peak_allocated_pages(&self) -> usize {
        self.peak_allocated
    }

    /// Allocates `page` (with all slots `Invalid`).
    ///
    /// Returns `Ok(false)` if the page was already allocated, `Ok(true)` on
    /// a fresh allocation, and [`SetFull`] when the set has no free frame —
    /// the caller must first evict the suggested victim (injecting any
    /// copies that require it).
    pub fn allocate_page(&mut self, page: PageId) -> Result<bool, SetFull> {
        if self.has_page(page) {
            return Ok(false);
        }
        let set = self.set_of(page);
        match self.sets[set].iter().position(Option::is_none) {
            Some(way) => {
                // Advance the LRU clock only on success: a SetFull failure
                // must not age the set, or victim selection on the retry
                // would be perturbed by the failed attempt.
                self.tick += 1;
                self.sets[set][way] = Some(PageFrame::new(page, self.tick));
                let idx = page.index() as usize;
                if self.index.len() <= idx {
                    self.index.resize(idx + 1, 0);
                }
                self.index[idx] = way as u32 + 1;
                self.allocated += 1;
                self.peak_allocated = self.peak_allocated.max(self.allocated);
                Ok(true)
            }
            None => {
                let victim = self.sets[set]
                    .iter()
                    .flatten()
                    .min_by_key(|f| f.lru)
                    .map(|f| f.page)
                    .expect("full set has frames");
                Err(SetFull { page, victim })
            }
        }
    }

    /// Deallocates `page`, returning the copies it still held.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated, or if any remaining copy
    /// requires injection ([`ItemState::requires_injection`]) — the protocol
    /// engine must inject those copies *before* evicting the page.
    pub fn evict_page(&mut self, page: PageId) -> Vec<(ItemId, ItemSlot)> {
        let (set, way) = self.frame_pos(page).expect("evicting unallocated page");
        self.index[page.index() as usize] = 0;
        let frame = self.sets[set][way].take().expect("index consistent");
        self.allocated -= 1;
        let mut dropped = Vec::new();
        for (slot_idx, slot) in frame.slots.iter().enumerate() {
            if slot.state.is_present() {
                assert!(
                    !slot.state.requires_injection(),
                    "evicting page {page} would lose a {} copy",
                    slot.state
                );
                let item = ItemId::new(page.index() * ITEMS_PER_PAGE + slot_idx as u64);
                dropped.push((item, *slot));
            }
        }
        dropped
    }

    /// Marks `page` recently used.
    pub fn touch(&mut self, page: PageId) {
        if let Some((set, way)) = self.frame_pos(page) {
            self.tick += 1;
            self.sets[set][way].as_mut().expect("index consistent").lru = self.tick;
        }
    }

    /// The current value of the LRU clock (advanced by successful
    /// allocations and touches; diagnostics and regression tests).
    pub fn lru_clock(&self) -> u64 {
        self.tick
    }

    /// The slot for `item`, if its page is allocated here.
    pub fn slot(&self, item: ItemId) -> Option<&ItemSlot> {
        let (set, way) = self.frame_pos(item.page())?;
        Some(
            &self.sets[set][way]
                .as_ref()
                .expect("index consistent")
                .slots[item.slot_in_page()],
        )
    }

    /// Mutable access to the slot for `item`, if its page is allocated here.
    pub fn slot_mut(&mut self, item: ItemId) -> Option<&mut ItemSlot> {
        let (set, way) = self.frame_pos(item.page())?;
        Some(
            &mut self.sets[set][way]
                .as_mut()
                .expect("index consistent")
                .slots[item.slot_in_page()],
        )
    }

    /// Coherence state of `item` here (`Invalid` if the page is absent).
    pub fn state(&self, item: ItemId) -> ItemState {
        self.slot(item).map_or(ItemState::Invalid, |s| s.state)
    }

    /// Installs a copy of `item` (page must already be allocated).
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn install(&mut self, item: ItemId, state: ItemState, value: u64, partner: Option<NodeId>) {
        let slot = self
            .slot_mut(item)
            .expect("installing into unallocated page");
        *slot = ItemSlot {
            state,
            value,
            partner,
            ckpt_gen: slot.ckpt_gen,
        };
    }

    /// Sets the state of `item`'s present slot.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn set_state(&mut self, item: ItemId, state: ItemState) {
        self.slot_mut(item).expect("page not allocated").state = state;
    }

    /// Clears `item`'s slot to `Invalid` (keeping the page allocated).
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn clear_slot(&mut self, item: ItemId) {
        let slot = self.slot_mut(item).expect("page not allocated");
        *slot = ItemSlot::default();
    }

    /// The paper's injection acceptance test for `item` at this AM.
    pub fn injection_acceptance(&self, item: ItemId) -> InjectionAccept {
        match self.slot(item) {
            Some(slot) => match slot.state {
                ItemState::Invalid => InjectionAccept::ReplaceInvalid,
                ItemState::Shared => InjectionAccept::ReplaceShared,
                _ => InjectionAccept::Reject,
            },
            None => {
                let set = self.set_of(item.page());
                if self.sets[set].iter().any(Option::is_none) {
                    return InjectionAccept::NewPage;
                }
                // Full set: a page holding only droppable copies may be
                // sacrificed (least recently used first).
                let victim = self.sets[set]
                    .iter()
                    .flatten()
                    .filter(|f| f.slots.iter().all(|s| !s.state.requires_injection()))
                    .min_by_key(|f| f.lru)
                    .map(|f| f.page);
                match victim {
                    Some(p) => InjectionAccept::ReplacePage(p),
                    None => InjectionAccept::Reject,
                }
            }
        }
    }

    /// Iterates over all present copies (page-allocated, non-invalid slots).
    pub fn iter_present(&self) -> impl Iterator<Item = (ItemId, &ItemSlot)> {
        self.sets.iter().flatten().flatten().flat_map(|frame| {
            frame
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.state.is_present())
                .map(move |(idx, s)| {
                    (
                        ItemId::new(frame.page.index() * ITEMS_PER_PAGE + idx as u64),
                        s,
                    )
                })
        })
    }

    /// Items whose copies here satisfy `pred` (collected to decouple from
    /// borrows; used by the checkpoint scans).
    pub fn items_where(&self, mut pred: impl FnMut(&ItemSlot) -> bool) -> Vec<ItemId> {
        self.iter_present()
            .filter(|(_, s)| pred(s))
            .map(|(i, _)| i)
            .collect()
    }

    /// Pages currently allocated (unordered).
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.sets.iter().flatten().flatten().map(|f| f.page)
    }

    /// Number of present copies in the given state.
    pub fn count_state(&self, state: ItemState) -> usize {
        self.iter_present()
            .filter(|(_, s)| s.state == state)
            .count()
    }

    /// Eviction candidates for allocating `page`: every page currently in
    /// `page`'s set, least-recently-used first. The caller filters out
    /// pages that must not move (reserved slots, pending fills).
    pub fn eviction_candidates(&self, page: PageId) -> Vec<PageId> {
        let set = self.set_of(page);
        let mut frames: Vec<(u64, PageId)> = self.sets[set]
            .iter()
            .flatten()
            .map(|f| (f.lru, f.page))
            .collect();
        frames.sort_unstable();
        frames.into_iter().map(|(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_geo() -> AmGeometry {
        // 4 frames, 2 ways => 2 sets.
        AmGeometry {
            capacity_bytes: 4 * PAGE_BYTES,
            ways: 2,
        }
    }

    #[test]
    fn allocate_install_lookup() {
        let mut am = AttractionMemory::ksr1();
        let item = ItemId::new(1000);
        assert_eq!(am.state(item), ItemState::Invalid);
        assert!(am.allocate_page(item.page()).unwrap());
        assert!(!am.allocate_page(item.page()).unwrap()); // idempotent
        am.install(item, ItemState::MasterShared, 5, None);
        assert_eq!(am.state(item), ItemState::MasterShared);
        assert_eq!(am.count_state(ItemState::MasterShared), 1);
        assert_eq!(am.allocated_pages(), 1);
    }

    #[test]
    fn set_full_reports_lru_victim() {
        let mut am = AttractionMemory::new(tiny_geo());
        // Pages 0 and 2 map to set 0 (2 sets).
        am.allocate_page(PageId::new(0)).unwrap();
        am.allocate_page(PageId::new(2)).unwrap();
        am.touch(PageId::new(0)); // page 2 becomes LRU
        let err = am.allocate_page(PageId::new(4)).unwrap_err();
        assert_eq!(err.victim, PageId::new(2));
        assert_eq!(err.page, PageId::new(4));
    }

    #[test]
    fn evict_page_returns_dropped_copies() {
        let mut am = AttractionMemory::new(tiny_geo());
        let page = PageId::new(0);
        am.allocate_page(page).unwrap();
        let item: ItemId = page.items().next().unwrap();
        am.install(item, ItemState::Shared, 1, None);
        let dropped = am.evict_page(page);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].0, item);
        assert!(!am.has_page(page));
        assert_eq!(am.allocated_pages(), 0);
        assert_eq!(am.peak_allocated_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "would lose")]
    fn evict_page_refuses_to_drop_master() {
        let mut am = AttractionMemory::new(tiny_geo());
        let page = PageId::new(0);
        am.allocate_page(page).unwrap();
        am.install(
            page.items().next().unwrap(),
            ItemState::MasterShared,
            0,
            None,
        );
        let _ = am.evict_page(page);
    }

    #[test]
    fn injection_acceptance_rules() {
        let mut am = AttractionMemory::new(tiny_geo());
        let page = PageId::new(0);
        am.allocate_page(page).unwrap();
        let mut items = page.items();
        let a = items.next().unwrap();
        let b = items.next().unwrap();
        am.install(a, ItemState::Shared, 0, None);
        am.install(b, ItemState::Exclusive, 0, None);

        assert_eq!(am.injection_acceptance(a), InjectionAccept::ReplaceShared);
        assert_eq!(am.injection_acceptance(b), InjectionAccept::Reject);
        let c = items.next().unwrap();
        assert_eq!(am.injection_acceptance(c), InjectionAccept::ReplaceInvalid);

        // Unallocated page with room in its set.
        let other = PageId::new(2).items().next().unwrap();
        assert_eq!(am.injection_acceptance(other), InjectionAccept::NewPage);

        // Fill set 0 completely: pages 0 and 2 occupy both ways. Page 2
        // holds only droppable copies, so it is offered as a sacrifice.
        am.allocate_page(PageId::new(2)).unwrap();
        let blocked = PageId::new(4).items().next().unwrap();
        assert_eq!(
            am.injection_acceptance(blocked),
            InjectionAccept::ReplacePage(PageId::new(2))
        );

        // Once every page in the set holds an unreplaceable copy, reject.
        am.install(
            PageId::new(2).items().next().unwrap(),
            ItemState::InvCk1,
            0,
            None,
        );
        assert_eq!(am.injection_acceptance(blocked), InjectionAccept::Reject);
    }

    #[test]
    fn iter_present_and_items_where() {
        let mut am = AttractionMemory::new(tiny_geo());
        let page = PageId::new(1);
        am.allocate_page(page).unwrap();
        let items: Vec<ItemId> = page.items().take(3).collect();
        am.install(items[0], ItemState::Exclusive, 1, None);
        am.install(items[1], ItemState::Shared, 2, None);
        am.install(items[2], ItemState::InvCk1, 3, Some(NodeId::new(9)));

        assert_eq!(am.iter_present().count(), 3);
        let modified = am.items_where(|s| s.state.is_modified_since_ckpt());
        assert_eq!(modified, vec![items[0]]);
        let recovery = am.items_where(|s| s.state.is_committed_recovery());
        assert_eq!(recovery, vec![items[2]]);
        assert_eq!(am.slot(items[2]).unwrap().partner, Some(NodeId::new(9)));
    }

    #[test]
    fn clear_slot_resets() {
        let mut am = AttractionMemory::new(tiny_geo());
        let page = PageId::new(0);
        am.allocate_page(page).unwrap();
        let item = page.items().next().unwrap();
        am.install(item, ItemState::Shared, 42, None);
        am.clear_slot(item);
        assert_eq!(am.state(item), ItemState::Invalid);
        assert_eq!(am.iter_present().count(), 0);
    }

    #[test]
    fn failed_allocation_leaves_lru_clock_untouched() {
        let mut am = AttractionMemory::new(tiny_geo());
        am.allocate_page(PageId::new(0)).unwrap();
        am.allocate_page(PageId::new(2)).unwrap();
        let clock_before = am.lru_clock();
        // Set 0 is full: allocation fails and must not age the set.
        am.allocate_page(PageId::new(4)).unwrap_err();
        am.allocate_page(PageId::new(6)).unwrap_err();
        assert_eq!(am.lru_clock(), clock_before);
    }

    #[test]
    fn victim_choice_stable_across_failed_then_retried_allocation() {
        let mut am = AttractionMemory::new(tiny_geo());
        am.allocate_page(PageId::new(0)).unwrap();
        am.allocate_page(PageId::new(2)).unwrap();
        am.touch(PageId::new(0)); // page 2 is now LRU
        let first = am.allocate_page(PageId::new(4)).unwrap_err();
        assert_eq!(first.victim, PageId::new(2));
        // Retrying without any intervening reference must name the same
        // victim, and must behave exactly like a fresh AM that never saw
        // the failed attempt.
        let retry = am.allocate_page(PageId::new(4)).unwrap_err();
        assert_eq!(retry.victim, first.victim);
        am.evict_page(retry.victim);
        am.allocate_page(PageId::new(4)).unwrap();
        // After the eviction-and-retry dance, LRU order is page 0 < page 4.
        let next = am.allocate_page(PageId::new(6)).unwrap_err();
        assert_eq!(next.victim, PageId::new(0));
    }
}
