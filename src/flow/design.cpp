#include "flow/design.hpp"

#include <chrono>
#include <mutex>
#include <utility>

#include "obs/trace.hpp"

namespace lis::flow {

/// RAII scope around one artifact build. Frames nest on a thread-local
/// stack: when a build triggers another (timing() mapping lazily), the
/// inner frame's wall time is subtracted from the outer one, so the stage
/// table records *exclusive* time per stage and summing it never
/// double-counts. Each frame also emits a "stage:<name>" tracer span whose
/// duration stays inclusive — the trace shows the real containment.
class StageFrame {
public:
  StageFrame(Design& design, const char* stage)
      : design_(&design), stage_(stage), parent_(tlsTop_),
        t0_(std::chrono::steady_clock::now()),
        span_(std::string("stage:") + stage, "stage") {
    span_.arg("design", design.name());
    tlsTop_ = this;
  }

  ~StageFrame() {
    const auto t1 = std::chrono::steady_clock::now();
    const double total = std::chrono::duration<double>(t1 - t0_).count();
    tlsTop_ = parent_;
    // Only attribute nested time within the same design: a frame opened by
    // a different Design on this thread is a coincidence of call stacks,
    // not a parent stage.
    if (parent_ != nullptr && parent_->design_ == design_) {
      parent_->childSeconds_ += total;
    }
    design_->recordStage(stage_, total - childSeconds_);
  }

  StageFrame(const StageFrame&) = delete;
  StageFrame& operator=(const StageFrame&) = delete;

private:
  inline static thread_local StageFrame* tlsTop_ = nullptr;

  Design* design_;
  const char* stage_;
  StageFrame* parent_;
  double childSeconds_ = 0.0;
  std::chrono::steady_clock::time_point t0_;
  obs::Span span_;
};

Design::Design(sync::WrapperConfig cfg) : Design(sync::wrapperSpec(cfg)) {
  cfg_ = cfg;
}

Design::Design(sync::SystemSpec spec) : spec_(std::move(spec)) {
  name_ = spec_->name + "_" + sync::encodingName(spec_->encoding);
}

Design::Design(netlist::Netlist prebuilt)
    : prebuilt_(std::make_unique<netlist::Netlist>(std::move(prebuilt))) {
  name_ = prebuilt_->name();
}

const netlist::Netlist* Design::netlistPtr() const {
  if (prebuilt_ != nullptr) return prebuilt_.get();
  if (system_ != nullptr) return &system_->netlist;
  return nullptr;
}

void Design::recordStage(const char* stage, double seconds) {
  std::lock_guard<std::mutex> lock(latches_->times);
  times_[stage] = seconds;
}

void Design::ensureSynthesized() {
  if (prebuilt_ != nullptr) return;
  // call_once makes losers wait and see the winner's writes; a throwing
  // synthesis (invalid spec) leaves the latch open so every accessor
  // reports the same error.
  std::call_once(latches_->synth, [&] { synthesize(); });
}

void Design::synthesize() {
  StageFrame frame(*this, "synthesize");
  system_ = std::make_unique<sync::System>(sync::buildSystem(*spec_));
}

const netlist::Netlist& Design::netlist() {
  ensureSynthesized();
  return *netlistPtr();
}

const sync::System* Design::system() {
  if (spec_) ensureSynthesized();
  return system_.get();
}

const sync::SystemPorts* Design::systemPorts() {
  return system() != nullptr ? &system_->ports : nullptr;
}

const sync::FsmSynthStats* Design::controlStats() {
  return system() != nullptr ? &system_->control : nullptr;
}

const netlist::Netlist& Design::optimize(const aig::OptimizeOptions& options) {
  ensureSynthesized();
  std::lock_guard<std::mutex> lock(latches_->chain);
  if (optimized_ == nullptr || optimizedEffort_ != options.effort) {
    StageFrame frame(*this, "optimize");
    // Always restart from the synthesized netlist: efforts select a
    // result, they don't compound on a previous optimization.
    aig::OptimizeResult result = aig::optimizeNetlist(*netlistPtr(), options);
    optimized_ =
        std::make_unique<netlist::Netlist>(std::move(result.netlist));
    optStats_ = result.stats;
    optimizedEffort_ = options.effort;
    mapped_.reset();
    area_.reset();
    timing_.reset();
  }
  return *optimized_;
}

const techmap::MappedNetlist& Design::mappedLocked(
    const techmap::MapOptions& o) {
  if (!mapped_ || mappedK_ != o.k || mappedRounds_ != o.rounds) {
    const netlist::Netlist& nl =
        optimized_ != nullptr ? *optimized_ : *netlistPtr();
    StageFrame frame(*this, "map");
    mapped_ = techmap::mapToLuts(nl, o);
    mappedK_ = o.k;
    mappedRounds_ = o.rounds;
    area_.reset();
    timing_.reset();
  }
  return *mapped_;
}

const techmap::MappedNetlist& Design::mapped(const techmap::MapOptions& o) {
  ensureSynthesized();
  std::lock_guard<std::mutex> lock(latches_->chain);
  return mappedLocked(o);
}

const techmap::MappedNetlist& Design::mapped(unsigned k) {
  ensureSynthesized();
  std::lock_guard<std::mutex> lock(latches_->chain);
  // Like timing(): the k-only convenience preserves the cached rounds so
  // it never silently downgrades a priority-cut mapping to greedy.
  techmap::MapOptions o;
  o.k = k;
  o.rounds = mappedRounds_;
  return mappedLocked(o);
}

const techmap::AreaReport& Design::area(const techmap::MapOptions& o) {
  ensureSynthesized();
  std::lock_guard<std::mutex> lock(latches_->chain);
  const techmap::MappedNetlist& m = mappedLocked(o);
  if (!area_) area_ = techmap::areaOf(m);
  return *area_;
}

const techmap::AreaReport& Design::area(unsigned k) {
  ensureSynthesized();
  std::lock_guard<std::mutex> lock(latches_->chain);
  techmap::MapOptions o;
  o.k = k;
  o.rounds = mappedRounds_; // see mapped(unsigned)
  const techmap::MappedNetlist& m = mappedLocked(o);
  if (!area_) area_ = techmap::areaOf(m);
  return *area_;
}

const timing::TimingReport& Design::timing(const timing::TechParams& params) {
  ensureSynthesized();
  std::lock_guard<std::mutex> lock(latches_->chain);
  if (!timing_) {
    // The sta frame opens before the lazy map so a triggered mapping nests
    // inside it — the map's wall lands on "map", and "sta" keeps only the
    // analysis itself (exclusive attribution, see StageFrame).
    StageFrame frame(*this, "sta");
    techmap::MapOptions o;
    o.k = mappedK_ == 0 ? 4 : mappedK_;
    o.rounds = mappedRounds_;
    const techmap::MappedNetlist& m = mappedLocked(o);
    timing_ = timing::analyze(m, params);
  }
  return *timing_;
}

double Design::stageSeconds(std::string_view stage) const {
  std::lock_guard<std::mutex> lock(latches_->times);
  const auto it = times_.find(std::string(stage));
  return it == times_.end() ? 0.0 : it->second;
}

} // namespace lis::flow
