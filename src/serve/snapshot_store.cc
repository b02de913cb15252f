#include "serve/snapshot_store.h"

#include <utility>

#include "util/check.h"

namespace dmt {
namespace serve {

// --- SnapshotRef ---

SnapshotRef::SnapshotRef(SnapshotRef&& other) noexcept
    : refs_(other.refs_), snapshot_(other.snapshot_) {
  other.refs_ = nullptr;
  other.snapshot_ = nullptr;
}

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& other) noexcept {
  if (this != &other) {
    Reset();
    refs_ = other.refs_;
    snapshot_ = other.snapshot_;
    other.refs_ = nullptr;
    other.snapshot_ = nullptr;
  }
  return *this;
}

SnapshotRef::~SnapshotRef() { Reset(); }

void SnapshotRef::Reset() {
  if (refs_ != nullptr) {
    // Release pairs with the writer's acquire read in Reclaim(): every
    // access this reader made to the snapshot happens-before the writer
    // observes refs == 0 and frees it.
    refs_->fetch_sub(1, std::memory_order_release);
    refs_ = nullptr;
    snapshot_ = nullptr;
  }
}

// --- SnapshotReader ---

SnapshotReader::SnapshotReader(SnapshotStore* store)
    : store_(store), slot_(store->ClaimSlot()) {}

SnapshotReader::~SnapshotReader() { store_->ReleaseSlot(slot_); }

DMT_HOT_KERNEL
SnapshotRef SnapshotReader::Acquire() {
  SnapshotStore::Slot& slot = store_->slots_[slot_];
  // 1. Announce the epoch we are entering under. seq_cst so the announce
  //    is ordered before the pointer load below in the single total order
  //    — the writer's swap-then-scan relies on that order (see the
  //    file comment in snapshot_store.h).
  slot.epoch.store(store_->epoch_.load(std::memory_order_seq_cst),
                   std::memory_order_seq_cst);
  // 2. Load the current publication.
  SnapshotStore::Published* pub =
      store_->current_.load(std::memory_order_seq_cst);
  // 3. Pin it. Acquire so the snapshot's construction (sequenced before
  //    the writer's swap, which this load synchronized with) is visible;
  //    the RMW also makes the pin visible to the writer's reclaim scan.
  pub->refs.fetch_add(1, std::memory_order_acq_rel);
  // 4. Quiesce. Release so the pin above is ordered before the slot
  //    reads as quiescent.
  slot.epoch.store(SnapshotStore::kQuiescent, std::memory_order_release);
  return SnapshotRef(&pub->refs, pub->snap.get());
}

// --- SnapshotStore ---

SnapshotStore::SnapshotStore(size_t max_readers) : slots_(max_readers) {
  DMT_CHECK_GE(max_readers, 1u);
  current_.store(new Published(BuildEmptySnapshot()),
                 std::memory_order_release);
}

SnapshotStore::~SnapshotStore() {
  // No readers may be live here (SnapshotReader must not outlive the
  // store); outstanding SnapshotRefs would dangle, so pins must be gone
  // too. Free everything unconditionally.
  delete current_.load(std::memory_order_acquire);
  for (Published* p : retired_) delete p;
}

size_t SnapshotStore::ClaimSlot() {
  for (size_t i = 0; i < slots_.size(); ++i) {
    bool expected = false;
    if (slots_[i].in_use.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      slots_[i].epoch.store(kQuiescent, std::memory_order_release);
      return i;
    }
  }
  DMT_CHECK(false);  // more concurrent readers than max_readers
  return 0;
}

void SnapshotStore::ReleaseSlot(size_t slot) {
  slots_[slot].epoch.store(kQuiescent, std::memory_order_release);
  slots_[slot].in_use.store(false, std::memory_order_release);
}

DMT_WRITER_SIDE
void SnapshotStore::Publish(std::unique_ptr<const Snapshot> snapshot) {
  DMT_CHECK(snapshot != nullptr);
  Published* fresh = new Published(std::move(snapshot));
  // Swap in the new publication. seq_cst exchange: readers that loaded
  // the *old* pointer announced their epoch before this point in the
  // seq_cst total order (their announce precedes their load precedes
  // this swap), so the scan below cannot miss them.
  Published* old = current_.exchange(fresh, std::memory_order_seq_cst);
  // Retire the old publication at the epoch value *before* the bump:
  // every reader announced at ≤ retire_epoch may still be acquiring it;
  // a reader announced at > retire_epoch provably loaded a newer pointer.
  old->retire_epoch = epoch_.fetch_add(1, std::memory_order_seq_cst);
  retired_.push_back(old);
  Reclaim();
}

DMT_WRITER_SIDE
void SnapshotStore::Reclaim() {
  size_t kept = 0;
  for (size_t i = 0; i < retired_.size(); ++i) {
    Published* p = retired_[i];
    bool blocked = false;
    for (const Slot& s : slots_) {
      if (!s.in_use.load(std::memory_order_acquire)) continue;
      const uint64_t announced = s.epoch.load(std::memory_order_seq_cst);
      // A reader announced at an epoch ≤ this snapshot's retirement
      // epoch may be between its pointer load and its refcount
      // increment right now — conservatively keep the snapshot until
      // the reader quiesces (then its pin, if any, blocks by itself)
      // or announces a later epoch.
      if (announced != kQuiescent && announced <= p->retire_epoch) {
        blocked = true;
        break;
      }
    }
    // The refcount is checked only AFTER the slot scan, and the order
    // matters: a reader that quiesced before the scan published its pin
    // with the release store the scan's load acquired, so the pin is
    // visible here; a reader still between pointer load and pin is
    // caught by the scan itself. Checking refs first would race with a
    // reader pinning mid-scan.
    if (!blocked && p->refs.load(std::memory_order_acquire) != 0) {
      blocked = true;
    }
    if (blocked) {
      retired_[kept++] = p;
    } else {
      delete p;
      ++reclaimed_;
    }
  }
  retired_.resize(kept);
}

}  // namespace serve
}  // namespace dmt
