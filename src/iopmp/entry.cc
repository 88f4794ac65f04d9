/**
 * @file
 * Entry implementation.
 */

#include "iopmp/entry.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

Entry
Entry::range(Addr base, Addr size, Perm perm)
{
    SIOPMP_ASSERT(size > 0, "range entry with zero size");
    Entry e;
    e.mode_ = EntryMode::Range;
    e.base_ = base;
    e.size_ = size;
    e.perm_ = perm;
    return e;
}

Entry
Entry::napot(Addr base, Addr size, Perm perm)
{
    if (!isPow2(size) || size < 8)
        fatal("NAPOT entry size %#llx is not a power of two >= 8",
              static_cast<unsigned long long>(size));
    if (base & (size - 1))
        fatal("NAPOT entry base %#llx not aligned to size %#llx",
              static_cast<unsigned long long>(base),
              static_cast<unsigned long long>(size));
    Entry e;
    e.mode_ = EntryMode::Napot;
    e.base_ = base;
    e.size_ = size;
    e.perm_ = perm;
    return e;
}

std::string
Entry::toString() const
{
    if (mode_ == EntryMode::Off)
        return "<off>";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%#llx,+%#llx)%s%s",
                  permName(perm_),
                  static_cast<unsigned long long>(base_),
                  static_cast<unsigned long long>(size_),
                  mode_ == EntryMode::Napot ? " napot" : "",
                  locked_ ? " L" : "");
    return buf;
}

} // namespace iopmp
} // namespace siopmp
