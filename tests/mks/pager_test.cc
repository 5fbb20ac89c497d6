#include <gtest/gtest.h>

#include "src/hw/disk.h"
#include "src/mks/pager/default_pager.h"
#include "tests/mk/kernel_test_fixture.h"

namespace mks {
namespace {

class PagerTest : public mk::KernelTest {
 protected:
  PagerTest() {
    disk_ = static_cast<hw::Disk*>(machine_.AddDevice(std::make_unique<hw::Disk>("paging", 3)));
    pager_task_ = kernel_.CreateTask("default-pager");
    pager_ = std::make_unique<DefaultPager>(kernel_, pager_task_,
                                            std::make_unique<BackdoorBlockStore>(disk_));
  }

  hw::Disk* disk_;
  mk::Task* pager_task_;
  std::unique_ptr<DefaultPager> pager_;
};

TEST_F(PagerTest, UnwrittenPagesPageInAsZeros) {
  auto object = pager_->CreateBackedObject(2 * hw::kPageSize);
  mk::Task* user = kernel_.CreateTask("user");
  auto addr = kernel_.VmMapObject(*user, object, 0, 2 * hw::kPageSize, mk::Prot::kReadWrite, true);
  ASSERT_TRUE(addr.ok());
  uint32_t value = 0xffffffff;
  kernel_.CreateThread(user, "u", [&](mk::Env& env) {
    ASSERT_EQ(env.CopyIn(*addr, &value, 4), base::Status::kOk);
    pager_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(pager_->pageins_served(), 1u);
}

TEST_F(PagerTest, PreloadedContentPagesIn) {
  auto object = pager_->CreateBackedObject(4 * hw::kPageSize);
  std::vector<uint8_t> page(hw::kPageSize, 0xcd);
  ASSERT_EQ(pager_->Preload(object->pager_object_id(), 2, page.data()), base::Status::kOk);
  mk::Task* user = kernel_.CreateTask("user");
  auto addr = kernel_.VmMapObject(*user, object, 0, 4 * hw::kPageSize, mk::Prot::kReadWrite, true);
  ASSERT_TRUE(addr.ok());
  uint8_t b0 = 0xff;
  uint8_t b2 = 0;
  kernel_.CreateThread(user, "u", [&](mk::Env& env) {
    ASSERT_EQ(env.CopyIn(*addr, &b0, 1), base::Status::kOk);
    ASSERT_EQ(env.CopyIn(*addr + 2 * hw::kPageSize, &b2, 1), base::Status::kOk);
    pager_->Stop();
  });
  kernel_.Run();
  EXPECT_EQ(b0, 0u);
  EXPECT_EQ(b2, 0xcd);
}

}  // namespace
}  // namespace mks
