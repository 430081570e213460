#pragma once
/// \file memo_snapshot.hpp
/// Memo persistence: a versioned text snapshot of every GlobalMemo
/// entry, written at service drain
/// (`--memo-save=PATH`) and restored at the next start
/// (`--memo-load=PATH`) so a restarted server warms from yesterday's
/// traffic instead of re-exploring it.
///
/// Format (version 1) — line-oriented, built from the codecs the wire
/// and relation formats already use:
///
///   brelmemo 1
///   .cost_id <memo fingerprint cost id, rest of line>
///   .exact 0|1
///   .saved_at <unix seconds, 0 if unknown>
///   .entries <count>
///   ┌ per entry ─────────────────────────────────────────────────────
///   │ .entry natural depth=<any|N> check=<16-hex FNV>     (or)
///   │ .entry root check=<16-hex FNV>
///   │ .iranks <k> <rank>*k
///   │ .oranks <k> <rank>*k
///   │ .chi <node_count>
///   │ <node lines + .root line, write_serialized_bdd>
///   │ .solution
///   │ <write_portable_solution body>
///   │ .endentry
///   └────────────────────────────────────────────────────────────────
///   .endmemo <count>
///
/// Only two mark shapes are representable: `.entry root` (a drained
/// solve's root answer — what every run publish saves as) and `.entry
/// natural` (a naturally drained subtree at its recorded depth, written
/// by older releases).  The memo stores the mark as opaque data and
/// writes it back unchanged; both shapes serve a root probe.  There is
/// deliberately NO syntax for any other shape, and the loader rejects
/// an unrecognized `.entry` line, so a hand-edited file cannot smuggle
/// in a partial result.
///
/// The loader NEVER throws past itself and never half-installs: each
/// entry is buffered to its `.endentry` line and parsed in isolation,
/// so a corrupt body, a checksum mismatch, or an unrecognized shape
/// skips exactly that entry (counted in `entries_skipped`) and a
/// truncated file yields the prefix that parsed — `ok` is false with a
/// diagnostic, the installed prefix stays.  A version or fingerprint
/// mismatch installs nothing.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "brel/global_memo.hpp"

namespace brel {

struct SnapshotSaveResult {
  bool ok = false;
  std::size_t entries = 0;  ///< entries written
  std::string error;        ///< diagnostic when !ok
};

struct SnapshotLoadResult {
  /// True only when the whole file parsed through a count-matching
  /// `.endmemo` trailer.  A partial load (truncation, skipped entries)
  /// reports !ok with `error` set but keeps what installed.
  bool ok = false;
  std::size_t entries_installed = 0;
  std::size_t entries_skipped = 0;  ///< corrupt / rejected entries
  std::uint64_t saved_at = 0;       ///< header `.saved_at` (unix seconds)
  std::string error;
};

/// Deterministic content checksum of one record (the
/// `check=` field): 64-bit FNV over the canonical key hash, the mark
/// shape, and the solution body.  Exposed so tests can forge/verify.
[[nodiscard]] std::uint64_t memo_entry_checksum(const MemoExportEntry& e);

/// Write / parse one canonical key in the `.iranks`/`.oranks`/`.chi`
/// grammar (the key section of an entry; also a MEMO_PULL request
/// body).  read_memo_key throws std::invalid_argument on malformed
/// input.
void write_memo_key(std::ostream& os, const GlobalMemoKey& key);
[[nodiscard]] GlobalMemoKey read_memo_key(std::istream& in);

/// Write / parse a memo fingerprint as the `.cost_id` + `.exact` line
/// pair (the snapshot header fields; also the validation preamble of
/// every MEMO_PULL/MEMO_PUSH body).  read returns nullopt on malformed
/// input or an empty cost id.
void write_memo_fingerprint(std::ostream& os, const MemoFingerprint& fp);
[[nodiscard]] std::optional<MemoFingerprint> read_memo_fingerprint(
    std::istream& in);

/// Write one record in the per-entry grammar above (also
/// the body of a MEMO_PUSH frame and a MEMO_PULL reply).
void write_memo_entry(std::ostream& os, const MemoExportEntry& e);

/// Parse one per-entry section (the text between and including `.entry`
/// and `.endentry`).  Throws std::invalid_argument on malformed input,
/// checksum mismatch, or a shape other than `natural` and `root` — callers
/// (snapshot loader, wire handlers) catch and skip/reject.
[[nodiscard]] MemoExportEntry read_memo_entry(std::istream& in);

/// Serialize every entry of `memo` to `os` / `path`.
/// The fingerprint header comes from memo.fingerprint(); an unbound
/// memo saves an empty snapshot with an empty cost id.
SnapshotSaveResult save_memo_snapshot(const GlobalMemo& memo,
                                      std::ostream& os,
                                      std::uint64_t saved_at_unix);
SnapshotSaveResult save_memo_snapshot(const GlobalMemo& memo,
                                      const std::string& path,
                                      std::uint64_t saved_at_unix);

/// Restore a snapshot into `memo` (installing with MemoOrigin
/// kSnapshot).  An unbound memo is bound to the snapshot's fingerprint;
/// a bound memo with a DIFFERENT fingerprint installs nothing (!ok) —
/// memoized solutions are only comparable under the configuration that
/// produced them, across a restart as much as within a process.
SnapshotLoadResult load_memo_snapshot(GlobalMemo& memo, std::istream& in);
SnapshotLoadResult load_memo_snapshot(GlobalMemo& memo,
                                      const std::string& path);

}  // namespace brel
