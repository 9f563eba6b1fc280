#include "fault/fault_injector.hh"

#include "sim/logging.hh"

namespace fsim
{

FaultInjector::FaultInjector(EventQueue &eq, Wire &wire, Nic &nic,
                             BackendPool *backends, const FaultPlan &plan)
    : eq_(eq), wire_(wire), nic_(nic), backends_(backends), plan_(plan)
{
}

void
FaultInjector::arm(const std::vector<IpAddr> &server_addrs,
                   Port server_port)
{
    fsim_assert(!armed_);
    armed_ = true;
    wire_.setFaultSeed(plan_.seed);

    for (const FaultEvent &e : plan_.events) {
        Tick start = ticksFromSeconds(e.startSec);
        Tick end = ticksFromSeconds(e.endSec);

        switch (e.kind) {
          case FaultKind::kLossBurst: {
            Wire::FaultWindow w;
            w.start = start;
            w.end = end;
            w.lossRate = e.rate;
            wire_.addFaultWindow(w);
            break;
          }
          case FaultKind::kReorder: {
            Wire::FaultWindow w;
            w.start = start;
            w.end = end;
            w.reorderRate = e.rate;
            w.reorderJitter = ticksFromUsec(e.jitterUsec);
            wire_.addFaultWindow(w);
            break;
          }
          case FaultKind::kDuplicate: {
            Wire::FaultWindow w;
            w.start = start;
            w.end = end;
            w.dupRate = e.rate;
            wire_.addFaultWindow(w);
            break;
          }
          case FaultKind::kSynFlood: {
            if (!flood_)
                flood_ = std::make_unique<SynFlood>(eq_, wire_,
                                                    server_addrs,
                                                    server_port);
            flood_->addWindow(start, end, e.rate);
            break;
          }
          case FaultKind::kBackendSlow:
            if (!backends_) {
                ++ignoredEvents_;
                break;
            }
            backends_->addSlowdown(e.target, start, end, e.factor);
            break;
          case FaultKind::kBackendDown:
            if (!backends_) {
                ++ignoredEvents_;
                break;
            }
            backends_->addOutage(e.target, start, end);
            break;
          case FaultKind::kAtrShrink: {
            std::uint32_t size = e.tableSize;
            eq_.schedule(start, [this, size] {
                nic_.setAtrCapacityClamp(size);
            });
            eq_.schedule(end, [this] { nic_.setAtrCapacityClamp(0); });
            break;
          }
          case FaultKind::kMachineCrash:
          case FaultKind::kRollingRestart:
          case FaultKind::kLbCrash:
          case FaultKind::kMachineDegrade:
          case FaultKind::kNetPartition:
            // Fleet orchestration: meaningless without a balancer
            // tier. A tiered FleetTestbed consumes these itself; the
            // injector only counts them.
            ++ignoredEvents_;
            break;
        }
    }
}

} // namespace fsim
