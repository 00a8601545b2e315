#include "io/schedule_export.h"

#include "common/json_writer.h"

namespace mrs {

namespace {

// Generous per-element widths for the size hint: a Fixed6 value and its
// separator, and the fixed text of one site or clone object outside its
// vectors' numbers.
constexpr size_t kNumberBytes = 14;
constexpr size_t kSiteBytes = 48;
constexpr size_t kCloneBytes = 48;
constexpr size_t kPhaseBytes = 128;

void AppendVector(const WorkVector& w, JsonWriter* out) {
  out->Raw('[');
  for (size_t i = 0; i < w.dim(); ++i) {
    if (i > 0) out->Raw(',');
    out->Fixed6(w[i]);
  }
  out->Raw(']');
}

void AppendSchedule(const Schedule& schedule, JsonWriter* out) {
  out->Raw("{\"num_sites\":")
      .Int(schedule.num_sites())
      .Raw(",\"dims\":")
      .Int(schedule.dims())
      .Raw(",\"makespan\":")
      .Fixed6(schedule.Makespan())
      .Raw(",\"sites\":[");
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) out->Raw(',');
    out->Raw("{\"site\":").Int(j).Raw(",\"time\":").Fixed6(
        schedule.SiteTime(j));
    out->Raw(",\"load\":");
    AppendVector(schedule.SiteLoad(j), out);
    out->Raw(",\"clones\":[");
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) out->Raw(',');
      first = false;
      out->Raw("{\"op\":").Int(c.op_id).Raw(",\"clone\":").Int(c.clone_idx);
      out->Raw(",\"work\":");
      AppendVector(c.work, out);
      out->Raw(",\"t_seq\":").Fixed6(c.t_seq).Raw('}');
    }
    out->Raw("]}");
  }
  out->Raw("]}");
}

size_t ScheduleSizeHint(const Schedule& schedule) {
  const size_t row = static_cast<size_t>(schedule.dims()) * kNumberBytes;
  return kPhaseBytes +
         static_cast<size_t>(schedule.num_sites()) * (kSiteBytes + row) +
         static_cast<size_t>(schedule.num_placements()) * (kCloneBytes + row);
}

}  // namespace

std::string ScheduleToJson(const Schedule& schedule) {
  std::string out;
  out.reserve(ScheduleSizeHint(schedule));
  JsonWriter w(&out);
  AppendSchedule(schedule, &w);
  return out;
}

size_t TreeScheduleJsonSizeHint(const TreeScheduleResult& result) {
  size_t bytes = kPhaseBytes;
  for (const PhaseSchedule& phase : result.phases) {
    bytes += kPhaseBytes + ScheduleSizeHint(phase.schedule);
  }
  return bytes;
}

bool AppendTreeScheduleJson(std::string* out,
                            const TreeScheduleResult& result) {
  JsonWriter w(out);
  w.Raw("{\"response_time\":").Fixed6(result.response_time).Raw(
      ",\"phases\":[");
  for (size_t k = 0; k < result.phases.size(); ++k) {
    if (k > 0) w.Raw(',');
    const PhaseSchedule& phase = result.phases[k];
    w.Raw("{\"phase\":")
        .Int(phase.phase)
        .Raw(",\"makespan\":")
        .Fixed6(phase.makespan)
        .Raw(",\"schedule\":");
    AppendSchedule(phase.schedule, &w);
    w.Raw('}');
  }
  w.Raw("]}");
  return w.ok();
}

std::string TreeScheduleToJson(const TreeScheduleResult& result) {
  std::string out;
  out.reserve(TreeScheduleJsonSizeHint(result));
  AppendTreeScheduleJson(&out, result);
  return out;
}

std::string TreeScheduleToCsv(const TreeScheduleResult& result) {
  std::string out;
  JsonWriter w(&out);
  w.Raw("phase,site,site_time");
  const int dims = result.phases.empty()
                       ? 0
                       : result.phases.front().schedule.dims();
  for (int i = 0; i < dims; ++i) w.Raw(",load_").Int(i);
  w.Raw(",num_clones\n");
  for (const auto& phase : result.phases) {
    for (int j = 0; j < phase.schedule.num_sites(); ++j) {
      w.Int(phase.phase).Raw(',').Int(j).Raw(',').Fixed6(
          phase.schedule.SiteTime(j));
      const WorkVector& load = phase.schedule.SiteLoad(j);
      for (size_t i = 0; i < load.dim(); ++i) w.Raw(',').Fixed6(load[i]);
      w.Raw(',')
          .Uint(phase.schedule.SitePlacements(j).size())
          .Raw('\n');
    }
  }
  return out;
}

std::string ListScheduleToJson(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out;
  out.reserve(ScheduleSizeHint(schedule) +
              result.tasks.size() * (kCloneBytes + 2 * kNumberBytes));
  JsonWriter w(&out);
  w.Raw("{\"makespan\":")
      .Fixed6(result.makespan)
      .Raw(",\"tree_response\":")
      .Fixed6(result.tree_response_time)
      .Raw(",\"fallback\":")
      .Int(result.used_tree_fallback ? 1 : 0)
      .Raw(",\"mode\":\"")
      .Raw(result.ModeString())
      .Raw("\",\"rounds\":")
      .Int(result.rounds)
      .Raw(",\"num_sites\":")
      .Int(schedule.num_sites())
      .Raw(",\"dims\":")
      .Int(schedule.dims())
      .Raw(",\"tasks\":[");
  for (size_t i = 0; i < result.tasks.size(); ++i) {
    if (i > 0) w.Raw(',');
    const ListTaskInterval& t = result.tasks[i];
    w.Raw("{\"task\":")
        .Int(t.task)
        .Raw(",\"start\":")
        .Fixed6(t.start)
        .Raw(",\"finish\":")
        .Fixed6(t.finish)
        .Raw('}');
  }
  w.Raw("],\"sites\":[");
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) w.Raw(',');
    w.Raw("{\"site\":").Int(j).Raw(",\"finish\":").Fixed6(
        schedule.SiteFinish(j));
    w.Raw(",\"load\":");
    AppendVector(schedule.SiteLoad(j), &w);
    w.Raw(",\"clones\":[");
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) w.Raw(',');
      first = false;
      w.Raw("{\"op\":")
          .Int(c.op_id)
          .Raw(",\"clone\":")
          .Int(c.clone_idx)
          .Raw(",\"start\":")
          .Fixed6(c.start)
          .Raw(",\"finish\":")
          .Fixed6(result.clone_finish[static_cast<size_t>(p)])
          .Raw(",\"work\":");
      AppendVector(c.work, &w);
      w.Raw(",\"t_seq\":").Fixed6(c.t_seq).Raw('}');
    }
    w.Raw("]}");
  }
  w.Raw("]}");
  return out;
}

std::string ListScheduleToCsv(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out;
  JsonWriter w(&out);
  w.Raw("site,finish");
  for (int i = 0; i < schedule.dims(); ++i) w.Raw(",load_").Int(i);
  w.Raw(",num_clones\n");
  for (int j = 0; j < schedule.num_sites(); ++j) {
    w.Int(j).Raw(',').Fixed6(schedule.SiteFinish(j));
    const WorkVector& load = schedule.SiteLoad(j);
    for (size_t i = 0; i < load.dim(); ++i) w.Raw(',').Fixed6(load[i]);
    w.Raw(',').Uint(schedule.SitePlacements(j).size()).Raw('\n');
  }
  return out;
}

}  // namespace mrs
