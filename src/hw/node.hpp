#pragma once
// A simulated node: identity + silicon spec + energy meter.
//
// Node objects are owned by the system builder (deep::sys) and referenced
// everywhere else.  compute() is the one call-site through which simulated
// code burns time: it advances the calling process's virtual time by the
// roofline model and books the energy.
//
// compute(ctx, cost, cores, kernel) also takes the rank's real arithmetic
// for that cost.  The kernel may run on an idle host thread while the
// engine runs other ranks through the modelled delay (sim/host_kernel.hpp);
// it is joined before the call returns.  Only host time changes: the
// delay, the energy, the trace span and every result are those of running
// the kernel first and then calling compute(ctx, cost, cores).

#include <memory>
#include <string>

#include "hw/compute.hpp"
#include "hw/energy.hpp"
#include "hw/nvm.hpp"
#include "hw/spec.hpp"
#include "sim/engine.hpp"
#include "sim/host_kernel.hpp"
#include "sim/trace.hpp"

namespace deep::hw {

class Node {
 public:
  Node(NodeId id, std::string name, NodeSpec spec)
      : id_(id), name_(std::move(name)), spec_(std::move(spec)), meter_(spec_) {
    if (spec_.nvm.present()) nvm_ = std::make_unique<NvmDevice>(spec_.nvm);
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  const NodeSpec& spec() const { return spec_; }
  NodeKind kind() const { return spec_.kind; }
  EnergyMeter& meter() { return meter_; }
  const EnergyMeter& meter() const { return meter_; }

  /// The node's NVM device, or nullptr when the spec has none.
  NvmDevice* nvm() { return nvm_.get(); }
  const NvmDevice* nvm() const { return nvm_.get(); }

  /// Executes `cost` on `cores` cores of this node: blocks the calling
  /// process for the modelled time and accounts busy-time + flops.
  void compute(sim::Context& ctx, const KernelCost& cost, int cores) {
    const sim::Duration d = compute_time(spec_, cost, cores);
    meter_.add_busy(d, cores);
    meter_.add_flops(cost.flops);
    const sim::TimePoint begin = ctx.now();
    ctx.delay(d);
    if (auto* tracer = ctx.engine().tracer()) {
      tracer->span(name_, "compute x" + std::to_string(cores), begin,
                   ctx.now(), "compute");
    }
  }

  /// Like compute(ctx, cost, cores), running `kernel` during the delay.
  /// Nothing may read what the kernel writes before this call returns; an
  /// exception it throws is rethrown here, after the delay.
  template <class Kernel>
  void compute(sim::Context& ctx, const KernelCost& cost, int cores,
               Kernel&& kernel) {
    sim::HostKernel host(ctx.engine(), kernel);
    compute(ctx, cost, cores);
    host.join();
  }

 private:
  NodeId id_;
  std::string name_;
  NodeSpec spec_;
  EnergyMeter meter_;
  std::unique_ptr<NvmDevice> nvm_;
};

}  // namespace deep::hw
