#include "src/verify/audit.h"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

namespace hyperion::verify {

namespace {

std::atomic<int> g_audit_override{-1};  // -1 = follow the environment

bool EnvEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("HYPERION_AUDIT");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

}  // namespace

bool AuditEnabled() {
  int o = g_audit_override.load(std::memory_order_relaxed);
  return o >= 0 ? o != 0 : EnvEnabled();
}

void SetAuditEnabled(bool enabled) {
  g_audit_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  for (const std::string& v : violations) {
    os << v << "\n";
  }
  os << violations.size() << " violation(s)";
  return os.str();
}

void AuditMmuCoherence(const mmu::MemoryVirtualizer& virt, bool paging,
                       uint32_t ptbr, AuditReport* report, uint32_t vcpu) {
  virt.AuditInvariants(paging, ptbr, &report->violations, vcpu);
}

void AuditFrameAccounting(const mem::FramePool& pool,
                          const std::vector<const mem::GuestMemory*>& spaces,
                          AuditReport* report) {
  // Frame -> number of guest pages mapping it, across every space.
  std::unordered_map<mem::HostFrame, uint32_t> mapped;
  for (const mem::GuestMemory* space : spaces) {
    for (uint32_t gpn = 0; gpn < space->num_pages(); ++gpn) {
      mem::HostFrame f = space->FrameForPage(gpn);
      if (f != mem::kInvalidFrame) {
        ++mapped[f];
      }
    }
  }

  for (mem::HostFrame f = 0; f < pool.total_frames(); ++f) {
    uint32_t refs = pool.RefCount(f);
    auto it = mapped.find(f);
    uint32_t maps = it == mapped.end() ? 0 : it->second;
    if (refs != maps) {
      std::ostringstream os;
      os << "frame " << f << ": refcount " << refs << " but mapped by " << maps
         << " guest page(s)";
      report->violations.push_back(os.str());
    }
  }

  // Every page of a multiply-mapped frame must carry the shared (COW) bit,
  // or a plain store could silently write through to the other mappers.
  for (const mem::GuestMemory* space : spaces) {
    for (uint32_t gpn = 0; gpn < space->num_pages(); ++gpn) {
      mem::HostFrame f = space->FrameForPage(gpn);
      if (f == mem::kInvalidFrame || mapped[f] <= 1 || space->IsShared(gpn)) {
        continue;
      }
      std::ostringstream os;
      os << "gpn 0x" << std::hex << gpn << std::dec << " maps frame " << f
         << " (mapped " << mapped[f] << " times) without the shared bit";
      report->violations.push_back(os.str());
    }
  }
}

namespace {

void Violate(AuditReport* report, std::string_view label, const std::string& msg) {
  report->violations.push_back(std::string(label) + ": " + msg);
}

// Whether every page under [gpa, gpa+bytes) is present. Rings whose pages
// are ballooned out or have not yet arrived (post-copy migration) cannot be
// audited — that is a legitimate transient, not an incoherence.
bool RegionPresent(const mem::GuestMemory& memory, uint32_t gpa, uint64_t bytes) {
  if (bytes == 0) {
    return true;
  }
  uint32_t first = isa::PageNumber(gpa);
  uint32_t last = isa::PageNumber(static_cast<uint32_t>(gpa + bytes - 1));
  for (uint32_t gpn = first; gpn <= last; ++gpn) {
    if (!memory.IsPresent(gpn)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void AuditVirtQueue(const virtio::VirtQueue& queue,
                    const mem::GuestMemory& memory, std::string_view label,
                    AuditReport* report) {
  if (!queue.ready()) {
    return;
  }
  const uint32_t size = queue.size();
  if (size == 0 || (size & (size - 1)) != 0 || size > virtio::kMaxQueueSize) {
    Violate(report, label, "ring size " + std::to_string(size) +
                               " is not a power of two <= " +
                               std::to_string(virtio::kMaxQueueSize));
    return;
  }
  const uint64_t ram = memory.ram_size();
  struct Region {
    const char* name;
    uint32_t gpa;
    uint64_t bytes;
  };
  const Region regions[] = {
      {"descriptor table", queue.desc_gpa(), uint64_t{virtio::kDescBytes} * size},
      {"avail ring", queue.avail_gpa(), 4 + uint64_t{2} * size},
      {"used ring", queue.used_gpa(), 4 + uint64_t{8} * size},
  };
  for (const Region& r : regions) {
    if (r.gpa + r.bytes > ram) {
      std::ostringstream os;
      os << r.name << " [0x" << std::hex << r.gpa << ", +0x" << r.bytes
         << ") lies outside guest RAM";
      Violate(report, label, os.str());
      return;
    }
    if (!RegionPresent(memory, r.gpa, r.bytes)) {
      return;  // post-copy/balloon transient; nothing to check yet
    }
  }

  auto avail_idx = memory.ReadU16(queue.avail_gpa() + 2);
  auto used_idx_mem = memory.ReadU16(queue.used_gpa() + 2);
  if (!avail_idx.ok() || !used_idx_mem.ok()) {
    Violate(report, label, "ring indices are unreadable (absent page?)");
    return;
  }
  if (*used_idx_mem != queue.used_idx()) {
    std::ostringstream os;
    os << "published used idx " << *used_idx_mem
       << " diverges from the device counter " << queue.used_idx();
    Violate(report, label, os.str());
  }
  // Order along the ring (mod 2^16): completed <= consumed <= posted, and no
  // window wider than the ring itself.
  uint16_t pending = static_cast<uint16_t>(*avail_idx - queue.last_avail());
  uint16_t popped = static_cast<uint16_t>(queue.last_avail() - queue.used_idx());
  if (pending > size) {
    std::ostringstream os;
    os << "guest posted " << pending << " chains into a ring of " << size;
    Violate(report, label, os.str());
  }
  if (popped > size) {
    std::ostringstream os;
    os << "device holds " << popped << " unpopped completions in a ring of " << size;
    Violate(report, label, os.str());
  }

  // Walk every still-pending descriptor chain: bounded length, no loops,
  // buffers inside RAM.
  uint16_t to_check = pending <= size ? pending : static_cast<uint16_t>(size);
  for (uint16_t n = 0; n < to_check; ++n) {
    uint16_t slot = static_cast<uint16_t>(queue.last_avail() + n) & (size - 1);
    auto head = memory.ReadU16(queue.avail_gpa() + 4 + 2u * slot);
    if (!head.ok()) {
      Violate(report, label, "avail ring entry unreadable");
      return;
    }
    if (*head >= size) {
      std::ostringstream os;
      os << "avail slot " << slot << " holds head " << *head
         << " >= ring size " << size;
      Violate(report, label, os.str());
      continue;
    }
    std::vector<bool> visited(size, false);
    uint16_t idx = *head;
    for (uint32_t len = 0;; ++len) {
      if (len >= size) {
        std::ostringstream os;
        os << "chain from head " << *head << " exceeds ring size";
        Violate(report, label, os.str());
        break;
      }
      if (visited[idx]) {
        std::ostringstream os;
        os << "descriptor loop through index " << idx << " (head " << *head << ")";
        Violate(report, label, os.str());
        break;
      }
      visited[idx] = true;
      uint32_t d = queue.desc_gpa() + virtio::kDescBytes * idx;
      auto gpa = memory.ReadU32(d);
      auto blen = memory.ReadU32(d + 4);
      auto flags = memory.ReadU16(d + 8);
      auto next = memory.ReadU16(d + 10);
      if (!gpa.ok() || !blen.ok() || !flags.ok() || !next.ok()) {
        Violate(report, label, "descriptor unreadable");
        break;
      }
      if (static_cast<uint64_t>(*gpa) + *blen > ram) {
        std::ostringstream os;
        os << "descriptor " << idx << " buffer [0x" << std::hex << *gpa
           << ", +0x" << *blen << ") lies outside guest RAM";
        Violate(report, label, os.str());
        break;
      }
      if ((*flags & virtio::kDescNext) == 0) {
        break;
      }
      if (*next >= size) {
        std::ostringstream os;
        os << "descriptor " << idx << " links to " << *next
           << " >= ring size " << size;
        Violate(report, label, os.str());
        break;
      }
      idx = *next;
    }
  }
}

void AuditVirtioDevice(const virtio::VirtioDevice& device,
                       const mem::GuestMemory& memory, std::string_view label,
                       AuditReport* report) {
  for (uint16_t q = 0; q < device.queue_count(); ++q) {
    AuditVirtQueue(device.queue_at(q), memory,
                   std::string(label) + " q" + std::to_string(q), report);
  }
}

}  // namespace hyperion::verify
