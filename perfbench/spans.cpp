#include "spans.h"

#include <cstdio>

namespace wetperf {

int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
Tracer::open(const char* name)
{
    Span s;
    s.name = name;
    s.parent = current_;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    current_ = static_cast<int64_t>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int64_t id)
{
    Span& s = spans_[static_cast<size_t>(id)];
    s.endNs = nowNs();
    current_ = s.parent;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::string module = s.name.substr(0, s.name.find('.'));
        self[module] +=
            static_cast<double>(s.endNs - s.startNs - childNs[i]) / 1e9;
    }
    return self;
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %lld}\n",
                     i, s.name.c_str(),
                     static_cast<long long>(s.startNs - base),
                     static_cast<long long>(s.endNs - base),
                     static_cast<long long>(s.parent));
    }
    return std::fclose(f) == 0;
}

} // namespace wetperf
