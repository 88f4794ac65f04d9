/**
 * @file
 * Unit tests for the tracing subsystem: the global tracer's on/off
 * behaviour and the Chrome trace-event JSON sink. JSON validity is checked with a minimal recursive-descent
 * parser rather than string matching, so structural regressions
 * (unbalanced arrays, missing commas, bad escapes) are caught.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "sim/trace.hh"
#include "support/capture_sink.hh"

namespace siopmp {
namespace trace {
namespace {

Event
makeEvent(Cycle when, Phase phase, const char *name,
          std::uint64_t id = 0)
{
    Event ev;
    ev.when = when;
    ev.phase = phase;
    ev.track = "unit";
    ev.category = "test";
    ev.name = name;
    ev.id = id;
    ev.device = 7;
    ev.addr = 0x8000'0000;
    ev.arg0 = 1;
    ev.arg1 = 2;
    return ev;
}

/**
 * Minimal JSON checker: validates syntax and counts objects. Enough to
 * prove the Chrome sink's output parses; semantic checks use the raw
 * string.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

    std::size_t objects() const { return objects_; }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    string()
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+'))
            ++pos_;
        return pos_ > start;
    }

    bool
    object()
    {
        ++objects_;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (pos_ < text_.size()) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
        return false;
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (pos_ < text_.size()) {
            if (!value())
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
        return false;
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    std::string text_;
    std::size_t pos_ = 0;
    std::size_t objects_ = 0;
};

TEST(Tracer, DisabledByDefaultAndEmitIsNoOp)
{
    ASSERT_EQ(tracer().sink(), nullptr);
    EXPECT_FALSE(on());
    emit(makeEvent(1, Phase::Instant, "ignored")); // must not crash
}

TEST(Tracer, EnabledWhileSinkInstalled)
{
    CaptureSink sink;
    tracer().setSink(&sink);
    EXPECT_TRUE(on());
    emit(makeEvent(5, Phase::Instant, "seen"));
    tracer().setSink(nullptr);
    EXPECT_FALSE(on());
    emit(makeEvent(6, Phase::Instant, "unseen"));

    ASSERT_EQ(sink.events().size(), 1u);
    EXPECT_STREQ(sink.events()[0].name, "seen");
    EXPECT_EQ(sink.events()[0].when, 5u);
}

TEST(ChromeTraceSink, EmptyTraceIsValidJson)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.flush();
    }
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
}

TEST(ChromeTraceSink, EventsFormValidJsonWithExpectedPhases)
{
    std::ostringstream os;
    ChromeTraceSink sink(os);
    sink.record(makeEvent(10, Phase::SpanBegin, "txn", 0x1001));
    sink.record(makeEvent(11, Phase::Instant, "verdict"));
    Event counter = makeEvent(12, Phase::Counter, "inflight");
    sink.record(counter);
    sink.record(makeEvent(13, Phase::SpanEnd, "txn", 0x1001));
    sink.flush();
    EXPECT_EQ(sink.eventsWritten(), 4u);

    const std::string out = os.str();
    JsonChecker checker(out);
    ASSERT_TRUE(checker.valid()) << out;
    // 1 toplevel + 1 metadata + 4 events + one args object each.
    EXPECT_GE(checker.objects(), 6u);

    EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("\"id\":\"0x1001\""), std::string::npos);
    // Track metadata names the component row exactly once.
    const auto first = out.find("\"thread_name\"");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(out.find("\"thread_name\"", first + 1), std::string::npos);
}

TEST(ChromeTraceSink, DistinctTracksGetDistinctTids)
{
    std::ostringstream os;
    ChromeTraceSink sink(os);
    Event a = makeEvent(1, Phase::Instant, "x");
    a.track = "alpha";
    Event b = makeEvent(2, Phase::Instant, "y");
    b.track = "beta";
    sink.record(a);
    sink.record(b);
    sink.record(a);
    sink.flush();
    const std::string out = os.str();
    JsonChecker checker(out);
    ASSERT_TRUE(checker.valid()) << out;
    EXPECT_NE(out.find("\"args\":{\"name\":\"alpha\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"name\":\"beta\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"tid\":1"), std::string::npos);
    EXPECT_NE(out.find("\"tid\":2"), std::string::npos);
}

TEST(ChromeTraceSink, LabelsAreEscaped)
{
    std::ostringstream os;
    ChromeTraceSink sink(os);
    Event ev = makeEvent(1, Phase::Instant, "odd");
    ev.label = "quote\"back\\slash";
    sink.record(ev);
    sink.flush();
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
    EXPECT_NE(os.str().find("quote\\\"back\\\\slash"),
              std::string::npos);
}

TEST(ChromeTraceSink, FlushIsIdempotent)
{
    std::ostringstream os;
    ChromeTraceSink sink(os);
    sink.record(makeEvent(1, Phase::Instant, "x"));
    sink.flush();
    const std::string after_first = os.str();
    sink.flush();
    EXPECT_EQ(os.str(), after_first);
}

} // namespace
} // namespace trace
} // namespace siopmp
