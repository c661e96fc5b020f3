#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

struct Frame {
  std::uint64_t id;
  std::int64_t request;
  std::string key;
};

thread_local std::vector<Frame> t_stack;

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t request, std::string key) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  {
    std::lock_guard<std::mutex> lock(tracer.mu_);
    rec_.id = tracer.next_id_++;
  }
  rec_.name = std::move(name);
  rec_.request = request;
  rec_.key = std::move(key);
  if (!t_stack.empty()) {
    const Frame& parent = t_stack.back();
    rec_.parent = parent.id;
    if (rec_.request < 0) rec_.request = parent.request;
    if (rec_.key.empty()) rec_.key = parent.key;
  }
  t_stack.push_back({rec_.id, rec_.request, rec_.key});
  rec_.start_us = tracer.NowUs();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  rec_.end_us = tracer_->NowUs();
  t_stack.pop_back();
  tracer_->Record(std::move(rec_));
}

void Tracer::AddObserved(std::string name, double start_us, double end_us, std::string key,
                         int track) {
  if (!enabled_) return;
  SpanRecord rec;
  rec.name = std::move(name);
  rec.start_us = start_us;
  rec.end_us = end_us;
  rec.key = std::move(key);
  rec.track = track;
  std::lock_guard<std::mutex> lock(mu_);
  rec.id = next_id_++;
  spans_.push_back(std::move(rec));
}

void Tracer::Record(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":" << JsonString(s.name) << ",\"cat\":" << JsonString(LayerOf(s.name))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track << ",\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"key\":" << JsonString(s.key) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::uint64_t, double> SelfTimesMs(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::uint64_t, double> self;
  for (const SpanRecord& s : spans) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = s.start_us;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_us);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[s.id] = std::max(0.0, (s.end_us - s.start_us) - covered) / 1000.0;
  }
  return self;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
