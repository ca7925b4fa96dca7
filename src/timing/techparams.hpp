#pragma once
// TechParams: delay model for the target fabric. Defaults approximate a
// 2005-era Xilinx Virtex-II-class device — the family the paper's slice
// counts and ~105 MHz clock rates correspond to. All delays in ns.

namespace lis::timing {

struct TechParams {
  double lutDelay = 0.65;        // k-LUT propagation
  double netDelayBase = 0.55;    // routing to first load
  double netDelayPerFanout = 0.07; // extra routing per additional load
  double netDelayCap = 2.2;      // routing saturates (buffering)
  double clkToQ = 0.45;          // FF clock-to-output
  double setup = 0.40;           // FF setup
  double inputDelay = 0.0;       // external arrival at primary inputs
  double outputDelay = 0.0;      // external requirement at primary outputs
  double clockSkewMargin = 0.20; // global margin added to the period

  double netDelay(unsigned fanout) const {
    if (fanout == 0) return 0.0;
    const double d = netDelayBase + netDelayPerFanout * (fanout - 1);
    return d > netDelayCap ? netDelayCap : d;
  }
};

} // namespace lis::timing
