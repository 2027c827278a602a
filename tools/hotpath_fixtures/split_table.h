// Fixture: a KernelTable-shaped struct declared in a header, its table
// initialized in split_table.cc — the layout of src/distance/simd.{h,cc}.
// The checker must bind the table across the two files.
namespace fixture {

struct SplitTable {
  int isa;
  float (*run)(const float* a, unsigned long n);
};

}  // namespace fixture
