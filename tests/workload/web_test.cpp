#include "workload/web.h"

#include <gtest/gtest.h>

namespace halfback::workload {
namespace {

using namespace halfback::sim::literals;

WebsiteCatalog make_catalog(std::uint64_t seed = 1) {
  return WebsiteCatalog{100, sim::Random{seed}};
}

TEST(WebCatalogTest, GeneratesRequestedSiteCount) {
  WebsiteCatalog catalog = make_catalog();
  EXPECT_EQ(catalog.size(), 100u);
}

TEST(WebCatalogTest, PagesRespectConfigBounds) {
  WebsiteCatalog catalog = make_catalog(2);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const WebPage& page = catalog.page(i);
    EXPECT_GE(page.object_bytes.size(),
              static_cast<std::size_t>(WebsiteCatalog::kObjectsMin));
    EXPECT_LE(page.object_bytes.size(),
              static_cast<std::size_t>(WebsiteCatalog::kObjectsMax));
    for (std::uint64_t b : page.object_bytes) {
      EXPECT_GE(b, WebsiteCatalog::kObjectBytesMin.count());
      EXPECT_LE(b, WebsiteCatalog::kObjectBytesMax.count());
    }
  }
}

TEST(WebCatalogTest, PagesVaryInWeight) {
  WebsiteCatalog catalog = make_catalog(3);
  std::uint64_t min_bytes = UINT64_MAX, max_bytes = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    min_bytes = std::min(min_bytes, catalog.page(i).total_bytes());
    max_bytes = std::max(max_bytes, catalog.page(i).total_bytes());
  }
  EXPECT_GT(max_bytes, min_bytes * 3);  // real page weights are dispersed
}

TEST(WebCatalogTest, MeanPageBytesIsPositiveAndPlausible) {
  WebsiteCatalog catalog = make_catalog(4);
  // Typical 2015 front pages are a few hundred KB to a few MB.
  EXPECT_GT(catalog.mean_page_bytes(), 100e3);
  EXPECT_LT(catalog.mean_page_bytes(), 5e6);
}

TEST(WebCatalogTest, DeterministicFromSeed) {
  WebsiteCatalog a = make_catalog(5);
  WebsiteCatalog b = make_catalog(5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.page(i).object_bytes, b.page(i).object_bytes);
  }
}

TEST(WebScheduleTest, RequestsWithinDuration) {
  WebsiteCatalog catalog = make_catalog(6);
  sim::Random rng{7};
  auto schedule = make_web_schedule(catalog, 0.3,
                                    sim::DataRate::megabits_per_second(15), 60_s, rng);
  ASSERT_FALSE(schedule.empty());
  for (const WebRequest& r : schedule) {
    EXPECT_LT(r.at, 60_s);
    EXPECT_LT(r.page_index, catalog.size());
  }
}

TEST(WebScheduleTest, LoadScalesWithUtilization) {
  WebsiteCatalog catalog = make_catalog(8);
  sim::Random rng1{9};
  sim::Random rng2{9};
  auto lo = make_web_schedule(catalog, 0.1, sim::DataRate::megabits_per_second(15),
                              600_s, rng1);
  auto hi = make_web_schedule(catalog, 0.5, sim::DataRate::megabits_per_second(15),
                              600_s, rng2);
  EXPECT_NEAR(static_cast<double>(hi.size()) / static_cast<double>(lo.size()), 5.0,
              1.5);
}

}  // namespace
}  // namespace halfback::workload
