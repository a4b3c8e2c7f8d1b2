#include "kernels/sort.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <vector>

#include "kernels/selection.h"

namespace tqp::kernels {

namespace {

// ---- comparison path: NaN keys, multi-column non-uint8 keys ----------------

// Three-way lexicographic comparison of rows i and j of `a`.
template <typename T>
int CompareRowsTyped(const T* p, int64_t cols, int64_t i, int64_t j) {
  const T* ri = p + i * cols;
  const T* rj = p + j * cols;
  for (int64_t c = 0; c < cols; ++c) {
    if (ri[c] < rj[c]) return -1;
    if (rj[c] < ri[c]) return 1;
  }
  return 0;
}

template <typename T>
void StableArgsortTyped(const Tensor& a, bool ascending, int64_t* out) {
  const T* p = a.data<T>();
  const int64_t cols = a.cols();
  std::iota(out, out + a.rows(), int64_t{0});
  std::stable_sort(out, out + a.rows(), [&](int64_t i, int64_t j) {
    const int c = CompareRowsTyped<T>(p, cols, i, j);
    return ascending ? c < 0 : c > 0;
  });
}

// ---- radix path -------------------------------------------------------------

constexpr int kDigitBits = 11;
constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

/// Order-preserving unsigned image of a key: OrderedBits(a) < OrderedBits(b)
/// iff a < b, and the images are equal iff neither is less. Signed integers
/// flip the sign bit; floats fold -0.0 into +0.0 (operator< ties them), then
/// negatives flip every bit and non-negatives gain the sign bit. NaN has no
/// place in this order; callers route NaN keys to the comparison path.
template <typename T>
uint64_t OrderedBits(T v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, uint8_t>) {
    return static_cast<uint64_t>(v);
  } else if constexpr (std::is_same_v<T, int32_t>) {
    return static_cast<uint32_t>(v) ^ 0x80000000u;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  } else {
    using U = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;
    constexpr U kSign = U{1} << (sizeof(U) * 8 - 1);
    const T folded = v == T{0} ? T{0} : v;
    U bits;
    std::memcpy(&bits, &folded, sizeof(U));
    return (bits & kSign) != 0 ? static_cast<U>(~bits) : static_cast<U>(bits | kSign);
  }
}

/// Turns per-bucket counts into exclusive start offsets. Returns false when
/// one bucket holds all `n` rows: the pass would be the identity, so skip it.
bool CountsToOffsets(uint32_t* h, size_t buckets, int64_t n) {
  uint32_t sum = 0;
  for (size_t b = 0; b < buckets; ++b) {
    if (h[b] == static_cast<uint64_t>(n)) return false;
    const uint32_t c = h[b];
    h[b] = sum;
    sum += c;
  }
  return true;
}

/// Widens n uint32 row ids, held in either half of the n x 8-byte buffer
/// `out`, to int64 in place. Byte-wise copies keep the overlapping reads and
/// writes ordered: the low half widens back to front and the high half front
/// to back, so every id is read before its bytes are overwritten.
void WidenIdsInPlace(const uint32_t* ids, int64_t n, int64_t* out) {
  auto* dst = reinterpret_cast<unsigned char*>(out);
  const auto* src = reinterpret_cast<const unsigned char*>(ids);
  auto widen = [dst, src](int64_t i) {
    uint32_t id;
    std::memcpy(&id, src + 4 * i, sizeof(id));
    const int64_t v = id;
    std::memcpy(dst + 8 * i, &v, sizeof(v));
  };
  if (src == dst) {
    for (int64_t i = n - 1; i >= 0; --i) widen(i);
  } else {
    for (int64_t i = 0; i < n; ++i) widen(i);
  }
}

/// Stable LSD counting passes over uint32 row ids: pass d orders the ids by
/// digit(row, d), least significant pass first, from the per-pass counts in
/// `hist` (`buckets` per pass, filled by the caller's sequential key scan).
/// The two n x 4-byte id arrays are the halves of the n x 8-byte output, so
/// the sort allocates no scratch beyond the histograms.
template <typename DigitFn>
void RadixSortIds(int64_t n, int passes, size_t buckets, std::vector<uint32_t>* hist,
                  const DigitFn& digit, int64_t* out) {
  auto* src = reinterpret_cast<uint32_t*>(out);
  uint32_t* dst = src + n;
  std::iota(src, src + n, uint32_t{0});
  for (int d = 0; d < passes; ++d) {
    uint32_t* h = hist->data() + static_cast<size_t>(d) * buckets;
    if (!CountsToOffsets(h, buckets, n)) continue;
    for (int64_t i = 0; i < n; ++i) {
      const uint32_t r = src[i];
      dst[h[digit(r, d)]++] = r;
    }
    std::swap(src, dst);
  }
  WidenIdsInPlace(src, n, out);
}

/// Single-column radix argsort over (OrderedBits ^ flip) - min in 11-bit
/// digits. Returns false (leaving `out` unspecified) on a NaN key.
template <typename T>
bool RadixArgsortColumn(const T* p, int64_t n, bool ascending, int64_t* out) {
  const uint64_t flip = ascending ? 0 : ~uint64_t{0};
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  uint64_t prev = 0;
  bool sorted = true;
  for (int64_t i = 0; i < n; ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(p[i])) return false;
    }
    const uint64_t k = OrderedBits(p[i]) ^ flip;
    lo = std::min(lo, k);
    hi = std::max(hi, k);
    sorted = sorted && k >= prev;
    prev = k;
  }
  if (sorted) {  // includes n <= 1 and all-equal keys
    std::iota(out, out + n, int64_t{0});
    return true;
  }
  const uint64_t range = hi - lo;
  const int digits = (static_cast<int>(std::bit_width(range)) + kDigitBits - 1) / kDigitBits;
  auto key = [p, flip, lo](uint32_t r) { return (OrderedBits(p[r]) ^ flip) - lo; };
  std::vector<uint32_t> hist(static_cast<size_t>(digits) * kBuckets, 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t k = key(static_cast<uint32_t>(i));
    for (int d = 0; d < digits; ++d) {
      ++hist[static_cast<size_t>(d) * kBuckets + ((k >> (d * kDigitBits)) & kDigitMask)];
    }
  }
  RadixSortIds(
      n, digits, kBuckets, &hist,
      [&key](uint32_t r, int d) { return (key(r) >> (d * kDigitBits)) & kDigitMask; },
      out);
  return true;
}

/// Multi-column uint8 (padded string) rows: one byte counting pass per
/// column, last column first, so earlier columns dominate (lexicographic).
void RadixArgsortBytes(const uint8_t* p, int64_t n, int64_t cols, bool ascending,
                       int64_t* out) {
  const uint8_t flip = ascending ? 0 : 0xFF;
  // Pass d sorts by column cols - 1 - d.
  std::vector<uint32_t> hist(static_cast<size_t>(cols) * 256, 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t* row = p + i * cols;
    for (int64_t c = 0; c < cols; ++c) {
      ++hist[static_cast<size_t>(cols - 1 - c) * 256 + (row[c] ^ flip)];
    }
  }
  RadixSortIds(
      n, static_cast<int>(cols), 256, &hist,
      [p, cols, flip](uint32_t r, int d) {
        return static_cast<size_t>(p[r * cols + (cols - 1 - d)] ^ flip);
      },
      out);
}

template <typename T>
void ArgsortTyped(const Tensor& a, bool ascending, int64_t* out) {
  const int64_t n = a.rows();
  if (n <= 0xFFFFFFFFll) {
    if (a.cols() == 1 && RadixArgsortColumn(a.data<T>(), n, ascending, out)) return;
    if constexpr (std::is_same_v<T, uint8_t>) {
      if (a.cols() > 1) {
        RadixArgsortBytes(a.data<uint8_t>(), n, a.cols(), ascending, out);
        return;
      }
    }
  }
  StableArgsortTyped<T>(a, ascending, out);
}

// ---- searchsorted -----------------------------------------------------------

template <typename T, typename V>
int64_t LowerBoundRow(const T* data, int64_t n, V v) {
  int64_t lo = 0;
  int64_t hi = n;
  while (lo < hi) {
    const int64_t mid = (lo + hi) / 2;
    if (data[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

template <typename T, typename V>
int64_t UpperBoundRow(const T* data, int64_t n, V v) {
  int64_t lo = 0;
  int64_t hi = n;
  while (lo < hi) {
    const int64_t mid = (lo + hi) / 2;
    if (data[mid] <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Probes ahead whose guessed position InterpolatedSearchSorted prefetches.
constexpr int64_t kPrefetchDistance = 16;

/// Integer searchsorted: guess each probe's position by linear interpolation
/// over [s[0], s[n-1]], gallop outward from the guess until the answer is
/// bracketed, then binary-search the bracket. On sorted input this returns
/// exactly std::lower_bound (upper_bound when `right`); the per-call state is
/// O(1), so morsel-parallel callers may split the probes freely.
template <typename T>
void InterpolatedSearchSorted(const T* s, int64_t n, const T* v, int64_t k,
                              bool right, int64_t* out) {
  const double first = n > 0 ? static_cast<double>(s[0]) : 0.0;
  const double span = n > 0 ? static_cast<double>(s[n - 1]) - first : 0.0;
  const double scale = span > 0 ? static_cast<double>(n - 1) / span : 0.0;
  auto guess_of = [first, scale, n](T x) {
    const double g = (static_cast<double>(x) - first) * scale;
    return static_cast<int64_t>(std::clamp(g, 0.0, static_cast<double>(n - 1)));
  };
  for (int64_t i = 0; i < k; ++i) {
    // The guess is usually the only cache miss of a probe: prefetching it a
    // few probes ahead overlaps those misses.
    if (n > 0 && i + kPrefetchDistance < k) {
      __builtin_prefetch(s + guess_of(v[i + kPrefetchDistance]));
    }
    const T x = v[i];
    // Rows before the insertion point: s[j] < x (lower), s[j] <= x (upper).
    auto before = [x, right](T y) { return right ? !(x < y) : y < x; };
    if (n == 0 || !before(s[0])) {
      out[i] = 0;
      continue;
    }
    if (before(s[n - 1])) {
      out[i] = n;
      continue;
    }
    // Invariant: before(s[lo]) and !before(s[hi]); the answer is hi.
    int64_t lo = 0;
    int64_t hi = n - 1;
    const int64_t guess = guess_of(x);
    if (before(s[guess])) {
      lo = guess;
      for (int64_t step = 1;; step *= 2) {
        const int64_t probe = lo + step;
        if (probe >= hi) break;
        if (!before(s[probe])) {
          hi = probe;
          break;
        }
        lo = probe;
      }
    } else {
      hi = guess;
      for (int64_t step = 1;; step *= 2) {
        const int64_t probe = hi - step;
        if (probe <= lo) break;
        if (before(s[probe])) {
          lo = probe;
          break;
        }
        hi = probe;
      }
    }
    while (hi - lo > 1) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (before(s[mid])) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    out[i] = hi;
  }
}

template <typename T>
void SearchSortedTyped(const Tensor& sorted, const Tensor& values, bool right,
                       int64_t* out) {
  const T* s = sorted.data<T>();
  const T* v = values.data<T>();
  const int64_t n = sorted.rows();
  if constexpr (std::is_integral_v<T>) {
    InterpolatedSearchSorted<T>(s, n, v, values.rows(), right, out);
  } else {
    for (int64_t i = 0; i < values.rows(); ++i) {
      out[i] = right ? UpperBoundRow<T, T>(s, n, v[i]) : LowerBoundRow<T, T>(s, n, v[i]);
    }
  }
}

}  // namespace

Result<Tensor> ArgsortRows(const Tensor& a, bool ascending) {
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, a.rows(), 1, a.device()));
  int64_t* po = out.mutable_data<int64_t>();
  switch (a.dtype()) {
    case DType::kBool:
      ArgsortTyped<bool>(a, ascending, po);
      break;
    case DType::kUInt8:
      ArgsortTyped<uint8_t>(a, ascending, po);
      break;
    case DType::kInt32:
      ArgsortTyped<int32_t>(a, ascending, po);
      break;
    case DType::kInt64:
      ArgsortTyped<int64_t>(a, ascending, po);
      break;
    case DType::kFloat32:
      ArgsortTyped<float>(a, ascending, po);
      break;
    case DType::kFloat64:
      ArgsortTyped<double>(a, ascending, po);
      break;
  }
  return out;
}

Result<Tensor> SortRows(const Tensor& a, const Tensor& perm) {
  return Gather(a, perm);
}

Result<Tensor> SearchSorted(const Tensor& sorted, const Tensor& values,
                            bool right) {
  if (sorted.cols() != 1 || values.cols() != 1) {
    return Status::Invalid("SearchSorted requires (n x 1) tensors");
  }
  if (sorted.dtype() != values.dtype()) {
    return Status::TypeError("SearchSorted: dtype mismatch");
  }
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, values.rows(), 1, values.device()));
  int64_t* po = out.mutable_data<int64_t>();
  switch (sorted.dtype()) {
    case DType::kBool:
      SearchSortedTyped<bool>(sorted, values, right, po);
      break;
    case DType::kUInt8:
      SearchSortedTyped<uint8_t>(sorted, values, right, po);
      break;
    case DType::kInt32:
      SearchSortedTyped<int32_t>(sorted, values, right, po);
      break;
    case DType::kInt64:
      SearchSortedTyped<int64_t>(sorted, values, right, po);
      break;
    case DType::kFloat32:
      SearchSortedTyped<float>(sorted, values, right, po);
      break;
    case DType::kFloat64:
      SearchSortedTyped<double>(sorted, values, right, po);
      break;
  }
  return out;
}

Result<Tensor> SegmentBoundaries(const Tensor& keys) {
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kBool, keys.rows(), 1, keys.device()));
  bool* po = out.mutable_data<bool>();
  if (keys.rows() == 0) return out;
  po[0] = true;
  const int64_t row_bytes = keys.cols() * DTypeSize(keys.dtype());
  const uint8_t* p = static_cast<const uint8_t*>(keys.raw_data());
  for (int64_t i = 1; i < keys.rows(); ++i) {
    po[i] = std::memcmp(p + i * row_bytes, p + (i - 1) * row_bytes,
                        static_cast<size_t>(row_bytes)) != 0;
  }
  return out;
}

Result<Tensor> UniqueSorted(const Tensor& sorted_keys) {
  TQP_ASSIGN_OR_RETURN(Tensor mask, SegmentBoundaries(sorted_keys));
  return Compress(sorted_keys, mask);
}

}  // namespace tqp::kernels
