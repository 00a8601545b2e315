#include "io/trace_export.h"

#include "common/json_writer.h"

namespace mrs {

namespace {

void AppendSpan(const TraceSpan& span, JsonWriter* out) {
  out->Raw("{\"name\":")
      .String(span.name)
      .Raw(",\"phase\":")
      .Int(span.phase)
      .Raw(",\"start_ms\":")
      .Fixed6(span.start_ms)
      .Raw(",\"end_ms\":")
      .Fixed6(span.end_ms)
      .Raw(",\"attrs\":{");
  for (size_t i = 0; i < span.attrs.size(); ++i) {
    if (i > 0) out->Raw(',');
    out->String(span.attrs[i].first).Raw(':').String(span.attrs[i].second);
  }
  out->Raw("}}");
}

void AppendTrace(const ScheduleTrace& trace, JsonWriter* out) {
  out->Raw("{\"label\":").String(trace.label()).Raw(",\"spans\":[");
  const std::vector<TraceSpan> spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out->Raw(',');
    AppendSpan(spans[i], out);
  }
  out->Raw("]}");
}

}  // namespace

std::string TraceToJson(const ScheduleTrace& trace) {
  std::string out;
  JsonWriter w(&out);
  AppendTrace(trace, &w);
  return out;
}

std::string ExportTraceReport(const std::vector<const ScheduleTrace*>& traces,
                              const MetricsSnapshot& metrics) {
  std::string out;
  JsonWriter w(&out);
  w.Raw("{\"version\":").Int(kTraceExportVersion).Raw(",\"traces\":[");
  bool first = true;
  for (const ScheduleTrace* trace : traces) {
    if (trace == nullptr) continue;
    if (!first) w.Raw(',');
    first = false;
    AppendTrace(*trace, &w);
  }
  w.Raw("],\"metrics\":");
  metrics.AppendJson(&w);
  w.Raw('}');
  return out;
}

}  // namespace mrs
