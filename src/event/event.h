// Primitive events: the atomic inputs of a CEP engine.
//
// A primitive event has a schema, one value per schema field and a single
// timestamp (start == end, Section 3 of the paper). Composite events are
// represented at execution time by exec::Record, which points back at its
// constituent primitive events.
#ifndef ZSTREAM_EVENT_EVENT_H_
#define ZSTREAM_EVENT_EVENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace zstream {

/// \brief An immutable primitive event.
class Event {
 public:
  Event(SchemaPtr schema, std::vector<Value> values, Timestamp ts);

  const SchemaPtr& schema() const { return schema_; }
  Timestamp timestamp() const { return ts_; }

  /// Process-unique sequence id, assigned at construction from a
  /// relaxed atomic counter. Match provenance (obs/trace.h) records the
  /// ids of a sampled match's contributing events, so "which events
  /// produced this match" survives after the events themselves are
  /// evicted from operator buffers.
  uint64_t id() const { return id_; }

  const Value& value(int field_idx) const {
    return values_[static_cast<size_t>(field_idx)];
  }
  const std::vector<Value>& values() const { return values_; }

  /// Attribute lookup by name; errors if the schema lacks the field.
  Result<Value> ValueOf(const std::string& field_name) const;

  /// Approximate resident size in bytes, used for peak-memory accounting.
  size_t ByteSize() const { return byte_size_; }

  std::string ToString() const;

 private:
  SchemaPtr schema_;
  std::vector<Value> values_;
  Timestamp ts_;
  size_t byte_size_;
  uint64_t id_;
};

using EventPtr = std::shared_ptr<const Event>;

/// \brief A borrowed span of events: the one ingest shape (a single
/// event is a batch of one). The pointers stay owned by the producer;
/// the span must outlive the call it is passed to.
struct EventBatch {
  const EventPtr* data = nullptr;
  size_t count = 0;
};

/// \brief Convenience builder for tests, examples and generators.
///
///   auto e = EventBuilder(schema).Set("name", "IBM").Set("price", 95)
///                .At(42).Build();
class EventBuilder {
 public:
  explicit EventBuilder(SchemaPtr schema)
      : schema_(std::move(schema)),
        values_(static_cast<size_t>(schema_->num_fields())) {}

  EventBuilder& Set(const std::string& field, Value v);
  EventBuilder& Set(const std::string& field, const char* v) {
    return Set(field, Value(v));
  }
  EventBuilder& Set(const std::string& field, int64_t v) {
    return Set(field, Value(v));
  }
  EventBuilder& Set(const std::string& field, int v) {
    return Set(field, Value(v));
  }
  EventBuilder& Set(const std::string& field, double v) {
    return Set(field, Value(v));
  }
  EventBuilder& At(Timestamp ts) {
    ts_ = ts;
    return *this;
  }

  EventPtr Build() const {
    return std::make_shared<Event>(schema_, values_, ts_);
  }

 private:
  SchemaPtr schema_;
  std::vector<Value> values_;
  Timestamp ts_ = 0;
};

/// The stock-trade schema used throughout the paper:
/// (id:int64, name:string, price:double, volume:int64, ts:int64).
SchemaPtr StockSchema();

/// The web-access-log schema of Section 6.5:
/// (ip:string, url:string, category:string).
SchemaPtr WebLogSchema();

}  // namespace zstream

#endif  // ZSTREAM_EVENT_EVENT_H_
