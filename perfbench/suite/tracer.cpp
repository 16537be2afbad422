#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

namespace pb {

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start = seconds_since(epoch_);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = seconds_since(epoch_);
  // Spans close in LIFO order (they are scoped), so the index is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<Tracer::Stats> Tracer::stats() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Stats> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Stats& st = by_name[s.name];
    st.name = s.name;
    ++st.count;
    st.total_s += s.end - s.start;
    st.self_s += (s.end - s.start) - child_s[i];
  }
  std::vector<Stats> out;
  for (auto& [name, st] : by_name) out.push_back(st);
  std::sort(out.begin(), out.end(), [](const Stats& a, const Stats& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  out.precision(12);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}\n";
  }
  out.flush();
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

}  // namespace pb
