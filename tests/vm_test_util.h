// Shared helpers for tests that drive whole VMs through core::Host or
// cluster::Cluster: boot a guest program, read its progress word, and digest
// its RAM.

#ifndef TESTS_VM_TEST_UTIL_H_
#define TESTS_VM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/cluster/cluster.h"
#include "src/core/host.h"
#include "src/guest/programs.h"
#include "src/util/crc32.h"

namespace hyperion {

// Loads `source` into a fresh VM on `host`.
inline core::Vm* BootVm(core::Host& host, core::VmConfig config, const std::string& source) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto vm = host.CreateVm(std::move(config));
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  return *vm;
}

// Loads `source` into a fresh VM that `cluster` places (on `pin`, if given).
inline core::Vm* BootVm(cluster::Cluster& cluster, core::VmConfig config,
                        const std::string& source, core::Host* pin = nullptr) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto vm = cluster.CreateVm(std::move(config), pin);
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  return *vm;
}

// The value of the `progress` word that `source` declares, read from `vm`.
inline uint32_t ReadProgress(core::Vm* vm, const std::string& source) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok());
  auto addr = guest::ProgressAddress(*image);
  EXPECT_TRUE(addr.ok());
  auto v = vm->memory().ReadU32(*addr);
  EXPECT_TRUE(v.ok());
  return v.value_or(0);
}

// Digest of guest RAM: presence map + contents of every present page.
inline uint32_t RamDigest(core::Vm& vm) {
  mem::GuestMemory& mem = vm.memory();
  uint32_t crc = 0;
  for (uint32_t gpn = 0; gpn < mem.num_pages(); ++gpn) {
    uint8_t present = mem.IsPresent(gpn) ? 1 : 0;
    crc = Crc32(&present, 1, crc);
    if (present) {
      crc = Crc32(mem.PageData(gpn), isa::kPageSize, crc);
    }
  }
  return crc;
}

}  // namespace hyperion

#endif  // TESTS_VM_TEST_UTIL_H_
