#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0}) {
    // Samples strictly beyond the percentile: n * (1 - p/100), computed in
    // integers (tenths of a percent) so 100 samples leave exactly 10 beyond
    // p90.
    const auto beyond_x1000 =
        static_cast<std::uint64_t>(n) *
        static_cast<std::uint64_t>(std::lround((100.0 - p) * 10.0));
    if (beyond_x1000 >= 10 * 1000) return p;
  }
  return 50.0;
}

std::int32_t Recorder::begin_op(const char* name, std::uint64_t op) {
  // An operation's own CPU reading sits outside its wall interval, so the
  // layer spans inside can cover all of it.
  const double cpu = traced_ ? process_cpu_s() : 0.0;
  Span span;
  span.name = name;
  span.op = op;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back({index, traced_, cpu});
  return index;
}

void Recorder::end_op(std::int32_t index) { end(index); }

std::int32_t Recorder::begin(const char* name, bool read_cpu) {
  if (!traced_) return -1;
  Span span;
  span.name = name;
  span.op = stack_.empty() ? 0 : spans_[stack_.back().index].op;
  span.parent = stack_.empty() ? -1 : stack_.back().index;
  // CPU is read inside the wall interval, so the syscall is charged to the
  // span itself and the parent's uncovered time stays genuine untimed work.
  span.start_ns = now_ns();
  const double cpu = read_cpu ? process_cpu_s() : 0.0;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back({index, read_cpu, cpu});
  return index;
}

void Recorder::end(std::int32_t index) {
  if (index < 0) return;
  // Spans close innermost-first; anything still open above `index` was
  // left open by an exception and closes here too.
  while (!stack_.empty()) {
    const Open open = stack_.back();
    stack_.pop_back();
    Span& span = spans_[open.index];
    if (span.parent == -1) {
      span.end_ns = now_ns();
      if (open.read_cpu) span.cpu_s = process_cpu_s() - open.cpu_start;
    } else {
      if (open.read_cpu) span.cpu_s = process_cpu_s() - open.cpu_start;
      span.end_ns = now_ns();
    }
    if (open.index == index) break;
  }
}

std::vector<double> op_latencies(const std::vector<Recorder>& recorders,
                                 std::initializer_list<std::string_view> names,
                                 double scale) {
  std::vector<double> out;
  for (const Recorder& rec : recorders) {
    for (const Span& s : rec.spans()) {
      if (s.parent != -1) continue;
      for (const std::string_view name : names) {
        if (name == s.name) {
          out.push_back(static_cast<double>(s.end_ns - s.start_ns) * scale);
        }
      }
    }
  }
  return out;
}

void Failures::fail(const std::string& what) {
  failed_.fetch_add(1);
  if (reported_.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

}  // namespace perfbench
