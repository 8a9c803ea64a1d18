#ifndef WETPERF_SPANS_H
#define WETPERF_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wetperf {

/**
 * In-memory span recorder for the traced run. Each span covers one
 * call the benchmark makes into a layer of the pipeline: its name is
 * `<module>.<what>`, and `parent` is the span that was open when it
 * started (-1 at top level). Spans stay in memory and are written out
 * once, at exit. With tracing off, opening a span costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int64_t parent = -1;
    };

    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    int64_t open(const char* name);
    void close(int64_t id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Seconds of self time per module (the name up to the first
     *  '.'): a span's duration minus what its children cover. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as one JSON line; false on I/O failure. */
    bool write(const std::string& path) const;

    static int64_t nowNs();

  private:
    bool on_ = false;
    int64_t current_ = -1;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scoped
{
  public:
    Scoped(Tracer& t, const char* name)
        : t_(&t), id_(t.enabled() ? t.open(name) : -1)
    {
    }
    ~Scoped()
    {
        if (id_ >= 0)
            t_->close(id_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

  private:
    Tracer* t_;
    int64_t id_;
};

} // namespace wetperf

#endif // WETPERF_SPANS_H
