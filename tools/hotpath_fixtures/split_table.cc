// Fixture: the table of split_table.h. SplitKernel is bound into a slot
// without the ODYSSEY_HOT annotation, which the hot-closure invariant must
// flag even though the struct is declared in another file.
#include "split_table.h"

namespace fixture {

float SplitKernel(const float* a, unsigned long n) {
  float sum = 0.0f;
  for (unsigned long i = 0; i < n; ++i) sum += a[i];
  return sum;
}

constexpr SplitTable kSplitTable = {
    0,
    SplitKernel,
};

}  // namespace fixture
