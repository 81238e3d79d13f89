/**
 * @file
 * The metadata journal (paper section 3.3 / 4.1.2).
 *
 * A multi-page transaction updates several per-page committed bitmaps;
 * those updates must become durable atomically.  SSP journals each
 * intended SSP-cache update as a small record — a redo log *for metadata
 * only*.  A record carries the transaction ID (TID), the SSP-cache slot
 * being modified (SID), the new physical page numbers, and the new
 * committed bitmap; the paper quotes ~128 bits of journaled metadata per
 * modified page versus a full 64-byte line per modified *cache line* for
 * data journaling.
 *
 * Records accumulate in a small controller-side log buffer and are
 * written back to NVRAM at cache-line granularity when the buffer fills
 * or a commit forces a flush.  A transaction is durable exactly when its
 * commit marker is contained in a fully-persisted line.  Checkpointing
 * (section 4.1.2) applies persisted records to the persistent SSP cache
 * and truncates the journal.
 *
 * The journal is a PersistLog (mem/persist_log.hh): its records pack,
 * and full lines drain from the log buffer in the background.  The
 * memory controller owns the checkpoint threshold.
 */

#ifndef SSP_NVRAM_JOURNAL_HH
#define SSP_NVRAM_JOURNAL_HH

#include <cstdint>

#include "common/bitmap64.hh"
#include "common/types.hh"
#include "mem/persist_log.hh"

namespace ssp
{

/** What a journal record describes. */
enum class JournalKind : std::uint8_t
{
    /** A transaction's intended update to one SSP cache slot. */
    Update,
    /** Transaction commit marker; makes the TID's updates durable. */
    Commit,
    /** A page-consolidation mapping change (self-committing). */
    Consolidate,
    /** A slot eviction: the page's SSP metadata left the cache and its
     *  shadow page returned to the pool (self-committing).  Without
     *  this record, recovery could resurrect a stale slot whose shadow
     *  page has since been handed to another page. */
    Free,
};

/** One metadata-journal record. */
struct JournalRecord
{
    JournalKind kind = JournalKind::Update;
    TxId tid = 0;
    SlotId sid = kInvalidSlot;
    Vpn vpn = 0;
    Ppn ppn0 = kInvalidPpn;
    Ppn ppn1 = kInvalidPpn;
    Bitmap64 committed;

    /** Serialized size in bytes: a commit marker is its TID and kind
     *  tag padded to 8 bytes; every other kind is kind+SID (8) + TID
     *  (8) + VPN/PPN0/PPN1 packed (16) + committed bitmap (8). */
    std::uint64_t
    sizeBytes() const
    {
        return kind == JournalKind::Commit ? 8 : 40;
    }
};

/** The journal: a background-streamed persistent log of JournalRecords. */
using MetadataJournal = PersistLog<JournalRecord>;

} // namespace ssp

#endif // SSP_NVRAM_JOURNAL_HH
