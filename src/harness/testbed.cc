#include "harness/experiment.hh"

#include <algorithm>
#include <cctype>
#include <string>

#include "check/fingerprint.hh"
#include "sim/logging.hh"

namespace fsim
{

FleetTestbed::FleetTestbed(const FleetConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.serverMachines < 1 || cfg_.serverMachines > 64 ||
        cfg_.balancers < 0 || cfg_.balancers > 8 ||
        (cfg_.balancers == 0 && cfg_.serverMachines != 1))
        fsim_fatal("testbed topology serverMachines=%d balancers=%d: "
                   "need 1..64 machines behind 1..8 balancers, or one "
                   "machine with balancers=0",
                   cfg_.serverMachines, cfg_.balancers);

    // The SYN-queue shorthand folds into the kernel config before any
    // machine exists; the default leaves it untouched.
    if (cfg_.base.synBacklog > 0)
        cfg_.base.machine.kernel.synBacklog = cfg_.base.synBacklog;
    // Balancer probes abandon their handshakes silently (a probe
    // RST-ACK would *establish* the embryonic socket), so tiered server
    // kernels always run the SYN_RCVD reaper.
    if (tiered() && cfg_.base.machine.kernel.synRcvdJiffies == 0)
        cfg_.base.machine.kernel.synRcvdJiffies = 20;

    drainPoll_ = ticksFromMsec(cfg_.drainPollMsec);
    fsim_assert(drainPoll_ > 0);

    eq_ = std::make_unique<EventQueue>();
    fabric_ = std::make_unique<Wire>(*eq_, kWireDelay);
    if (cfg_.base.lossRate > 0.0)
        fabric_->setLossRate(cfg_.base.lossRate,
                             cfg_.base.machine.seed ^ 0x10ad);

    const int clientIps = cfg_.base.clientIps > 0 ? cfg_.base.clientIps
                                                  : 256;
    const IpAddr clientBase = HttpLoad::Config{}.clientBase;
    if (tiered() && cfg_.useLinks) {
        Wire::LinkSpec front;
        front.aFirst = clientBase;
        front.aLast = clientBase + static_cast<IpAddr>(clientIps) - 1;
        front.bFirst = vipAddr(0);
        front.bLast = vipAddr(cfg_.balancers - 1);
        front.latency = ticksFromUsec(cfg_.frontLinkLatencyUsec);
        front.gbps = cfg_.frontLinkGbps;
        fabric_->addLink(front);
        for (int s = 0; s < cfg_.serverMachines; ++s) {
            Wire::LinkSpec rack;
            rack.aFirst = natAddr(0);
            rack.aLast = natAddr(cfg_.balancers - 1);
            rack.bFirst = machineBase(s);
            rack.bLast = machineBase(s) + 0xff;
            rack.latency = ticksFromUsec(cfg_.rackLinkLatencyUsec);
            rack.gbps = cfg_.rackLinkGbps;
            fabric_->addLink(rack);
        }
    }

    if (cfg_.base.app == AppKind::kHaproxy) {
        const IpAddr bfirst = 0x0a010001;   // 10.1.0.1 (shared tier)
        const IpAddr blast =
            bfirst + static_cast<IpAddr>(cfg_.base.backendCount - 1);
        backends_ = std::make_unique<BackendPool>(
            *eq_, *fabric_, bfirst, blast, kResponseBytes,
            ticksFromUsec(100));
        backends_->setKeepAlive(cfg_.base.backendKeepAlive);
        for (IpAddr a = bfirst; a <= blast; ++a)
            backendAddrs_.push_back(a);
    }

    if (!tiered() && cfg_.base.keepSpanTraces &&
        cfg_.base.machine.traceEnabled)
        spanRecorder_ = std::make_unique<ConnSpanRecorder>();

    slots_.resize(cfg_.serverMachines);
    for (int s = 0; s < cfg_.serverMachines; ++s)
        buildGeneration(s);

    // Balancers share one ring seed so every balancer steers a given
    // flow to the same machine (the consistent-hash fleet property).
    for (int k = 0; k < cfg_.balancers; ++k) {
        L4Balancer::Config bc;
        bc.vip = vipAddr(k);
        bc.vipPort = 80;
        bc.natIp = natAddr(k);
        bc.policy = cfg_.policy;
        bc.vnodes = cfg_.vnodes;
        bc.boundedLoadFactor = cfg_.boundedLoadFactor;
        bc.maxFlows = cfg_.maxFlowsPerBalancer;
        bc.probeInterval = ticksFromMsec(cfg_.probeIntervalMsec);
        bc.probeTimeout = ticksFromMsec(cfg_.probeTimeoutMsec);
        bc.fallThreshold = cfg_.probeFallThreshold;
        bc.riseThreshold = cfg_.probeRiseThreshold;
        bc.healthMode = cfg_.healthMode;
        bc.score = cfg_.healthScore;
        bc.flowIdleTimeout = ticksFromMsec(cfg_.flowIdleTimeoutMsec);
        bc.gcPeriod = ticksFromMsec(cfg_.flowGcPeriodMsec);
        bc.forwardDelay = ticksFromUsec(cfg_.forwardDelayUsec);
        bc.seed = cfg_.base.machine.seed ^ 0xb417;
        auto b = std::make_unique<L4Balancer>(*eq_, *fabric_, bc);
        for (int s = 0; s < cfg_.serverMachines; ++s) {
            L4Balancer::TargetSpec ts;
            ts.addrs = slots_[s].gen.machine->addrs();
            ts.port = slots_[s].gen.machine->servicePort();
            b->addTarget(ts);
        }
        // Cross-tier overload reuse: steering consults each live
        // machine's kernel pressure signal.
        b->setPressureProbe([this](int m) {
            if (!slots_[m].up)
                return 0;
            return static_cast<int>(
                slots_[m].gen.machine->pressure().level());
        });
        b->setIncidentLog(&incidents_);
        b->setTraceLog(&traceLog_, k);
        b->attachHandlers();
        b->start();
        balancers_.push_back(std::move(b));
    }
    lbUp_.assign(cfg_.balancers, true);

    // Clients (and the fault injector) aim at the VIPs when a tier
    // fronts the machines, else straight at the one machine.
    std::vector<IpAddr> targets;
    Port targetPort = 80;
    if (tiered()) {
        for (int k = 0; k < cfg_.balancers; ++k)
            targets.push_back(vipAddr(k));
    } else {
        targets = machine(0).addrs();
        targetPort = machine(0).servicePort();
    }

    HttpLoad::Config lc;
    lc.serverAddrs = targets;
    lc.serverPort = targetPort;
    lc.concurrency = cfg_.base.concurrencyPerCore *
                     cfg_.base.machine.cores * cfg_.serverMachines;
    lc.requestsPerConn = cfg_.base.requestsPerConn;
    lc.timeout = cfg_.base.clientTimeout;
    lc.seed = cfg_.base.machine.seed ^ 0xabcdef;
    lc.maxConns = cfg_.base.maxConns;
    lc.rtoBase = cfg_.base.clientRtoBase;
    lc.healthEvery = cfg_.base.clientHealthEvery;
    if (cfg_.base.machine.overload.healthRequestBytes > 0)
        lc.healthRequestBytes =
            cfg_.base.machine.overload.healthRequestBytes;
    lc.longLivedPermille = cfg_.base.longLivedPermille;
    lc.longLivedRequests = cfg_.base.longLivedRequests;
    lc.longLivedThink = cfg_.base.longLivedThink;
    lc.clientPortSpan = cfg_.base.clientPortSpan;
    lc.clientIps = clientIps;
    load_ = std::make_unique<HttpLoad>(*eq_, *fabric_, lc);
    obsServedPrev_.assign(slots_.size(), 0);
    if (tiered()) {
        load_->setTraceLog(&traceLog_);
        setupObservability();
    }

    if (!cfg_.base.faults.empty()) {
        // Wire/backend/flood events arm normally (floods hit the
        // client target; fleet kinds are counted as ignored by the
        // injector and, with a tier, consumed below). atr_shrink binds
        // to machine 0's boot NIC.
        faults_ = std::make_unique<FaultInjector>(
            *eq_, *fabric_, slots_[0].gen.machine->nic(),
            backends_.get(), cfg_.base.faults);
        faults_->arm(targets, targetPort);
        if (tiered())
            armFleetFaults();
    }

    if (cfg_.base.checkLevel != CheckLevel::kOff) {
        for (const ServerSlot &sl : slots_)
            registerMachineInvariants(sl.gen);
        for (std::size_t k = 0; k < balancers_.size(); ++k) {
            L4Balancer *b = balancers_[k].get();
            checks_.add("fleet-flow-conservation",
                        [b](Tick, std::string &why) {
                const LbCounters &c = b->counters();
                if (c.flowsCreated == c.flowsRetired + b->flowsActive())
                    return true;
                why = "created " + std::to_string(c.flowsCreated) +
                      " != retired " + std::to_string(c.flowsRetired) +
                      " + active " + std::to_string(b->flowsActive());
                return false;
            });
            checks_.add("fleet-target-accounting",
                        [b](Tick, std::string &why) {
                std::uint64_t sum = 0;
                for (int m = 0; m < b->targetCount(); ++m)
                    sum += b->activeFlows(m);
                if (sum == b->flowsActive())
                    return true;
                why = "per-target active " + std::to_string(sum) +
                      " != flow table " +
                      std::to_string(b->flowsActive());
                return false;
            });
            checks_.add("fleet-drain-accounting",
                        [b](Tick, std::string &why) {
                const LbCounters &c = b->counters();
                if (c.drainsStarted >= c.drainsCompleted)
                    return true;
                why = "drains completed " +
                      std::to_string(c.drainsCompleted) +
                      " exceed started " + std::to_string(c.drainsStarted);
                return false;
            });
        }
    }

    markWindows();
}

FleetTestbed::~FleetTestbed() = default;

void
FleetTestbed::buildGeneration(int s)
{
    ServerSlot &sl = slots_[s];
    MachineConfig mc = cfg_.base.machine;
    mc.baseAddr = machineBase(s);
    // The fleet of one is the machine the config describes, seed and
    // all; tiered slots derive theirs per slot and generation.
    if (tiered())
        mc.seed ^=
            (0x5107ULL + static_cast<std::uint64_t>(s) * 0x9e3779b9ULL) ^
            (static_cast<std::uint64_t>(sl.generation) * 0x85ebca6bULL);

    Generation g;
    g.port = std::make_unique<NetPort>(*fabric_);
    g.machine = std::make_unique<Machine>(*eq_, *g.port, mc);
    if (spanRecorder_)
        g.machine->tracer().connSpans().setTap(spanRecorder_.get());

    if (cfg_.base.app == AppKind::kHaproxy) {
        auto proxy = std::make_unique<Proxy>(*g.machine, backendAddrs_,
                                             cfg_.base.backendPort,
                                             kResponseBytes);
        if (cfg_.base.backendTimeout > 0) {
            Proxy::Tuning pt;
            pt.backendTimeout = cfg_.base.backendTimeout;
            proxy->setTuning(pt);
        }
        g.app = std::move(proxy);
    } else {
        g.app = std::make_unique<WebServer>(
            *g.machine, kResponseBytes,
            cfg_.base.requestsPerConn > 1 ||
                cfg_.base.longLivedPermille > 0);
    }
    g.app->setAcceptMutex(cfg_.base.acceptMutex);
    g.app->start();

    if (cfg_.base.machine.overload.enabled) {
        g.admission = std::make_unique<AdmissionController>(
            g.machine->config().overload, &g.machine->pressure(),
            g.machine->numCores());
        g.app->setAdmission(g.admission.get(),
                            &g.machine->config().overload);
    }

    if (cfg_.base.listenBacklog > 0) {
        for (const Socket *sock : g.machine->kernel().allSockets())
            if (sock->kind == SockKind::kListen)
                sock->listen->backlog = cfg_.base.listenBacklog;
    }

    sl.gen = std::move(g);
    // A gray fault is the slot's environment, not one generation's
    // state: a restart mid-degrade comes back just as sick.
    if (sl.degraded)
        applyDegrade(s);
    // Fresh generation, fresh window marks (all its counters are 0).
    sl.gen.machine->markWindow();
    sl.phaseMark = PhaseSnapshot{};
    sl.lockMark.clear();
    sl.ksMark = KernelStats{};
    sl.servedMark = 0;
    sl.accessesMark = 0;
    sl.missesMark = 0;
}

std::vector<std::pair<IpAddr, IpAddr>>
FleetTestbed::resolveGroup(const std::string &tok) const
{
    std::vector<std::pair<IpAddr, IpAddr>> out;
    if (tok == "clients") {
        const int clientIps = cfg_.base.clientIps > 0
                                  ? cfg_.base.clientIps
                                  : 256;
        const IpAddr base = HttpLoad::Config{}.clientBase;
        out.emplace_back(base,
                         base + static_cast<IpAddr>(clientIps) - 1);
    } else if (tok == "lbs") {
        out.emplace_back(vipAddr(0), vipAddr(cfg_.balancers - 1));
        out.emplace_back(natAddr(0), natAddr(cfg_.balancers - 1));
    } else if (tok == "ms") {
        // machineBase blocks are contiguous 0x100 strides.
        out.emplace_back(machineBase(0),
                         machineBase(cfg_.serverMachines - 1) + 0xff);
    } else if (tok.rfind("lb", 0) == 0 && tok.size() > 2) {
        const int k = std::stoi(tok.substr(2));
        if (k >= 0 && k < cfg_.balancers) {
            out.emplace_back(vipAddr(k), vipAddr(k));
            out.emplace_back(natAddr(k), natAddr(k));
        }
    } else if (tok.size() > 1 && tok[0] == 'm') {
        const int s = std::stoi(tok.substr(1));
        if (s >= 0 && s < cfg_.serverMachines)
            out.emplace_back(machineBase(s), machineBase(s) + 0xff);
    }
    if (out.empty())
        fsim_fatal("net_partition: group '%s' names nothing in a fleet "
                   "of %d machines / %d balancers",
                   tok.c_str(), cfg_.serverMachines, cfg_.balancers);
    return out;
}

void
FleetTestbed::armFleetFaults()
{
    for (const FaultEvent &e : cfg_.base.faults.events) {
        const Tick start = ticksFromSeconds(e.startSec);
        const Tick end = ticksFromSeconds(e.endSec);
        switch (e.kind) {
          case FaultKind::kMachineCrash: {
            fsim_assert(e.target >= 0 &&
                        e.target < cfg_.serverMachines);
            const int t = e.target;
            const FaultEvent::CrashMode mode = e.mode;
            const int id = incidents_.open(IncidentKind::kMachineCrash,
                                           t, start);
            eq_->schedule(start, [this, t, mode] {
                crashMachine(t, mode, /*admin=*/false);
            });
            eq_->schedule(end, [this, t, id] {
                restartMachine(t);
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          case FaultKind::kRollingRestart: {
            const Tick drain = ticksFromMsec(e.drainMsec);
            const Tick down = ticksFromMsec(e.downMsec);
            eq_->schedule(start, [this, drain, down] {
                beginRollingRestart(drain, down);
            });
            break;
          }
          case FaultKind::kLbCrash: {
            fsim_assert(e.target >= 0 && e.target < cfg_.balancers);
            const int t = e.target;
            // Balancer incidents never collide with machine-slot stamp
            // routing (targets_ indices are < 64).
            const int id = incidents_.open(IncidentKind::kLbCrash,
                                           1000 + t, start);
            eq_->schedule(start, [this, t] { crashBalancer(t); });
            eq_->schedule(end, [this, t, id] {
                restoreBalancer(t);
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          case FaultKind::kMachineDegrade: {
            fsim_assert(e.target >= 0 &&
                        e.target < cfg_.serverMachines);
            const int t = e.target;
            const std::uint32_t permille = static_cast<std::uint32_t>(
                e.factor * 1000.0 + 0.5);
            const double loss = e.rate;
            const Tick delay = ticksFromUsec(e.jitterUsec);
            const Tick half = e.flapMsec > 0
                                  ? ticksFromMsec(e.flapMsec) / 2
                                  : 0;
            const int id = incidents_.open(
                half > 0 ? IncidentKind::kMachineFlap
                         : IncidentKind::kMachineDegrade,
                t, start);
            if (half > 0) {
                // Pre-scheduled oscillation: degraded on even
                // half-periods, nominally healthy on odd ones.
                int phase = 0;
                for (Tick at = start; at < end; at += half, ++phase) {
                    const bool on = phase % 2 == 0;
                    eq_->schedule(at,
                                  [this, t, on, permille, loss, delay] {
                        ++orch_.flapTransitions;
                        if (on)
                            degradeMachine(t, permille, loss, delay);
                        else
                            clearDegrade(t);
                    });
                }
            } else {
                eq_->schedule(start, [this, t, permille, loss, delay] {
                    degradeMachine(t, permille, loss, delay);
                });
            }
            eq_->schedule(end, [this, t, id] {
                clearDegrade(t);
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          case FaultKind::kNetPartition: {
            const auto as = resolveGroup(e.partA);
            const auto bs = resolveGroup(e.partB);
            for (const auto &ra : as) {
                for (const auto &rb : bs) {
                    Wire::PartitionSpec p;
                    p.aFirst = ra.first;
                    p.aLast = ra.second;
                    p.bFirst = rb.first;
                    p.bLast = rb.second;
                    p.start = start;
                    p.end = end;
                    fabric_->addPartition(p);
                    ++orch_.partitionsArmed;
                }
            }
            // A single-machine side pins the incident to that slot so
            // eject/recover stamps land; group-to-group partitions stay
            // fleet-wide (-1).
            auto singleMachine = [this](const std::string &tok) {
                if (tok.size() < 2 || tok[0] != 'm' ||
                    !std::isdigit(static_cast<unsigned char>(tok[1])))
                    return -1;
                const int s = std::stoi(tok.substr(1));
                return s < cfg_.serverMachines ? s : -1;
            };
            int target = singleMachine(e.partA);
            if (target < 0)
                target = singleMachine(e.partB);
            const int id = incidents_.open(IncidentKind::kNetPartition,
                                           target, start);
            eq_->schedule(end, [this, id] {
                incidents_.noteCleared(id, eq_->now());
            });
            break;
          }
          default:
            break;    // armed on the FaultInjector
        }
    }
}

void
FleetTestbed::applyDegrade(int s)
{
    ServerSlot &sl = slots_.at(s);
    sl.gen.machine->cpu().setSlowdownPermille(
        sl.degraded ? sl.slowPermille : 1000);
    const std::uint64_t seed =
        cfg_.base.machine.seed ^
        (0xde64adeULL + static_cast<std::uint64_t>(s) * 0x9e3779b9ULL);
    sl.gen.port->setDegrade(sl.degraded ? sl.nicLoss : 0.0,
                            sl.degraded ? sl.nicDelay : 0, seed);
}

void
FleetTestbed::degradeMachine(int s, std::uint32_t permille,
                             double nicLoss, Tick nicDelay)
{
    ServerSlot &sl = slots_.at(s);
    sl.degraded = true;
    sl.slowPermille = permille < 1000 ? 1000 : permille;
    sl.nicLoss = nicLoss;
    sl.nicDelay = nicDelay;
    ++orch_.degradesApplied;
    applyDegrade(s);
}

void
FleetTestbed::clearDegrade(int s)
{
    ServerSlot &sl = slots_.at(s);
    if (!sl.degraded)
        return;
    sl.degraded = false;
    applyDegrade(s);
}

void
FleetTestbed::crashMachine(int s, FaultEvent::CrashMode mode, bool admin)
{
    ServerSlot &sl = slots_.at(s);
    if (!sl.up)
        return;
    sl.up = false;
    if (!admin)
        ++orch_.crashes;

    // TX side: the zombie kernel's future transmissions die at its port.
    sl.gen.port->setTxOpen(false);
    // The dying kernel's TCBs will never destruct, so their span
    // traces would stay live forever; finalize them abnormally now so
    // end-to-end trace stitching still sees the work they performed.
    sl.gen.machine->tracer().connSpans().closeAllLive(eq_->now());
    // RX side: the corpse either answers RSTs (power on, kernel gone)
    // or eats packets (cable pulled). Wire re-resolves handlers at
    // delivery, so even in-flight packets see the corpse.
    const bool blackhole = mode == FaultEvent::CrashMode::kBlackhole;
    for (IpAddr a : sl.gen.port->attachedAddrs()) {
        if (blackhole) {
            fabric_->attach(a, [this](const Packet &) {
                ++orch_.blackholed;
            });
        } else {
            fabric_->attach(a, [this](const Packet &pkt) {
                if (pkt.has(kRst))
                    return;     // never RST a RST
                Packet rst;
                rst.tuple = pkt.tuple.reversed();
                rst.flags = kRst;
                rst.connId = pkt.connId;
                ++orch_.corpseRsts;
                fabric_->transmit(rst, eq_->now());
            });
        }
    }

    if (admin) {
        // Planned stop: balancers know. (Abrupt crashes are discovered
        // through probe failures instead — that's the point.)
        for (auto &b : balancers_)
            b->noteStopped(s);
    }
}

void
FleetTestbed::restartMachine(int s)
{
    ServerSlot &sl = slots_.at(s);
    if (sl.up)
        return;

    // Bank the dying generation's window contribution, then retire it
    // as a zombie (run-total counters must stay reachable).
    const KernelStats &ks = sl.gen.machine->kernel().stats();
    carry_.served += sl.gen.app->served() - sl.servedMark;
    carry_.slowPath += ks.slowPathAccepts - sl.ksMark.slowPathAccepts;
    carry_.steered += ks.steeredPackets - sl.ksMark.steeredPackets;
    carry_.rx += ks.rxPackets - sl.ksMark.rxPackets;
    carry_.activeLocal += ks.activePktLocal - sl.ksMark.activePktLocal;
    carry_.activeTotal += ks.activePktTotal - sl.ksMark.activePktTotal;
    carry_.accesses +=
        sl.gen.machine->cache().totalAccesses() - sl.accessesMark;
    carry_.misses +=
        sl.gen.machine->cache().totalMisses() - sl.missesMark;
    retired_.push_back(std::move(sl.gen));

    ++sl.generation;
    buildGeneration(s);
    sl.up = true;
    ++orch_.restarts;
    for (auto &b : balancers_)
        b->noteRestarted(s);

    if (cfg_.base.checkLevel != CheckLevel::kOff)
        registerMachineInvariants(sl.gen);
}

void
FleetTestbed::registerMachineInvariants(const Generation &g)
{
    registerStandardInvariants(checks_, *g.machine, *load_, *fabric_);
    if (g.admission)
        registerOverloadInvariants(checks_, *g.admission, *g.machine,
                                   *g.app);
}

std::uint64_t
FleetTestbed::totalActiveOn(int s) const
{
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < balancers_.size(); ++k)
        if (lbUp_[k])
            sum += balancers_[k]->activeFlows(s);
    return sum;
}

void
FleetTestbed::beginRollingRestart(Tick drainDeadline, Tick downtime)
{
    fsim_assert(drainDeadline > 0 && downtime > 0);
    if (rollingActive_)
        return;
    rollingActive_ = true;
    rollingIndex_ = 0;
    rollingDrain_ = drainDeadline;
    rollingDown_ = downtime;
    advanceRolling();
}

void
FleetTestbed::advanceRolling()
{
    // Skip slots that are already down (an independent crash window).
    while (rollingIndex_ < static_cast<int>(slots_.size()) &&
           !slots_[rollingIndex_].up)
        ++rollingIndex_;
    if (rollingIndex_ >= static_cast<int>(slots_.size())) {
        rollingActive_ = false;
        return;
    }
    const int s = rollingIndex_;
    for (std::size_t k = 0; k < balancers_.size(); ++k)
        if (lbUp_[k])
            balancers_[k]->startDrain(s);
    pollDrain(s, eq_->now() + rollingDrain_);
}

void
FleetTestbed::pollDrain(int s, Tick deadline)
{
    eq_->scheduleIn(drainPoll_, [this, s, deadline] {
        if (!slots_[s].up) {
            // Crashed out from under the drain; close the books and
            // move on (the crash window owns the restart).
            for (std::size_t k = 0; k < balancers_.size(); ++k)
                if (lbUp_[k])
                    balancers_[k]->finishDrain(s);
            ++rollingIndex_;
            advanceRolling();
            return;
        }
        if (totalActiveOn(s) > 0 && eq_->now() < deadline) {
            pollDrain(s, deadline);
            return;
        }
        for (std::size_t k = 0; k < balancers_.size(); ++k)
            if (lbUp_[k])
                balancers_[k]->finishDrain(s);
        crashMachine(s, FaultEvent::CrashMode::kRst, /*admin=*/true);
        eq_->scheduleIn(rollingDown_, [this, s] {
            restartMachine(s);
            pollReadmit(s);
        });
    });
}

void
FleetTestbed::pollReadmit(int s)
{
    eq_->scheduleIn(drainPoll_, [this, s] {
        bool ok = true;
        for (std::size_t k = 0; k < balancers_.size(); ++k)
            if (lbUp_[k])
                ok = ok && balancers_[k]->healthy(s);
        if (ok) {
            ++rollingIndex_;
            advanceRolling();
        } else {
            pollReadmit(s);
        }
    });
}

void
FleetTestbed::crashBalancer(int k)
{
    if (!lbUp_.at(k))
        return;
    lbUp_[k] = false;
    ++orch_.lbCrashes;
    balancers_[k]->setDown(true);
    fabric_->attach(vipAddr(k),
                    [this](const Packet &) { ++orch_.blackholed; });
    fabric_->attach(natAddr(k),
                    [this](const Packet &) { ++orch_.blackholed; });
    // A surviving peer adopts the VIP after the detection lag.
    eq_->scheduleIn(ticksFromMsec(cfg_.takeoverDelayMsec), [this, k] {
        if (lbUp_[k])
            return;     // restored before the failover fired
        for (std::size_t kk = 0; kk < balancers_.size(); ++kk) {
            if (lbUp_[kk]) {
                balancers_[kk]->adoptVip(vipAddr(k));
                ++orch_.vipTakeovers;
                return;
            }
        }
    });
}

void
FleetTestbed::restoreBalancer(int k)
{
    if (lbUp_.at(k))
        return;
    lbUp_[k] = true;
    balancers_[k]->setDown(false);
    // Re-attaching overwrites both the blackhole and any peer adoption.
    balancers_[k]->attachHandlers();
}

void
FleetTestbed::startLoad()
{
    if (loadStarted_)
        return;
    loadStarted_ = true;
    if (cfg_.openLoopRate > 0.0)
        load_->startOpenLoop(cfg_.openLoopRate);
    else
        load_->start();
}

void
FleetTestbed::runUntilChecked(Tick limit)
{
    if (cfg_.base.checkLevel != CheckLevel::kPeriodic) {
        eq_->runUntil(limit);
        return;
    }
    Tick step = ticksFromSeconds(cfg_.base.checkIntervalSec);
    if (step == 0)
        step = 1;
    while (eq_->now() < limit) {
        eq_->runUntil(std::min(limit, eq_->now() + step));
        checks_.runAll(eq_->now());
    }
}

void
FleetTestbed::markWindows()
{
    for (ServerSlot &sl : slots_) {
        Machine &m = *sl.gen.machine;
        m.markWindow();
        sl.phaseMark = m.tracer().phaseSnapshot();
        sl.lockMark = m.locks().snapshot();
        sl.ksMark = m.kernel().stats();
        sl.servedMark = sl.gen.app->served();
        sl.accessesMark = m.cache().totalAccesses();
        sl.missesMark = m.cache().totalMisses();
    }
    load_->markWindow();
    completedMark_ = load_->completed();
    failedMark_ = load_->failed();
    eventsRunMark_ = eq_->executed();
    eventsScheduledMark_ = eq_->scheduled();
    markTick_ = eq_->now();
    spanCompletedMark_ = machine(0).tracer().connSpans().completedCount();
    rawSpanMark_ = spanRecorder_ ? spanRecorder_->completed().size() : 0;
    carry_ = WindowCarry{};

    // Re-seed the observability cursors so warmup traffic never leaks
    // into the first sampled window or the SLO burn state.
    obsCompletedPrev_ = load_->completed();
    obsFailedPrev_ = load_->failed();
    obsShedPrev_ = currentShedTotal();
    latCursor_ = load_->latencySamples().size();
    for (std::size_t s = 0; s < slots_.size(); ++s)
        obsServedPrev_[s] = slots_[s].gen.app->served();
}

std::uint64_t
FleetTestbed::currentShedTotal() const
{
    std::uint64_t shed = 0;
    for (const auto &b : balancers_)
        shed += b->counters().shedNoBackend + b->counters().shedCapacity;
    forEachGeneration([&shed](const Generation &g) {
        if (g.admission)
            shed += g.admission->shed();
    });
    return shed;
}

void
FleetTestbed::setupObservability()
{
    // Recording infrastructure follows the span-trace master switch:
    // --notrace must leave both logs allocation-free.
    const bool rec = cfg_.base.machine.traceEnabled;
    traceLog_.setEnabled(rec);
    metrics_.setEnabled(rec);
    const int wins = std::max(1, cfg_.base.statWindows);
    metrics_.setSamplePeriod(
        ticksFromSeconds(cfg_.base.measureSec) / wins);

    for (int k = 0; k < cfg_.balancers; ++k)
        mid_.lbFlows.push_back(metrics_.addGauge(
            "lb" + std::to_string(k) + ".flows"));
    for (int s = 0; s < cfg_.serverMachines; ++s) {
        const std::string p = "m" + std::to_string(s);
        mid_.mCps.push_back(metrics_.addGauge(p + ".cps"));
        mid_.mEstablished.push_back(
            metrics_.addGauge(p + ".established"));
        mid_.mTimeWait.push_back(metrics_.addGauge(p + ".time_wait"));
        mid_.mPressure.push_back(metrics_.addGauge(p + ".pressure"));
    }
    mid_.completed = metrics_.addCounter("fleet.completed");
    mid_.failed = metrics_.addCounter("fleet.failed");
    mid_.shed = metrics_.addCounter("fleet.shed");
    mid_.upMachines = metrics_.addGauge("fleet.up_machines");
    mid_.healthyTargets = metrics_.addGauge("fleet.healthy_targets");
    mid_.successRatio = metrics_.addGauge("fleet.success_ratio");
    mid_.latency = metrics_.addHistogram("client.latency_ticks");
    mid_.fastBurn = metrics_.addGauge("slo.fast_burn");
    mid_.slowBurn = metrics_.addGauge("slo.slow_burn");

    // SLO tracking is config-gated, not trace-gated: it consumes only
    // aggregate load counters, so it stays live under --notrace.
    if (cfg_.sloEnabled) {
        slo_ = std::make_unique<SloTracker>(cfg_.slo);
        slo_->setIncidentLog(&incidents_);
    }
}

void
FleetTestbed::sampleObservability(Tick wstart, Tick wend)
{
    if (!tiered())
        return;
    // Window deltas from cumulative client-side counters.
    const std::uint64_t completed = load_->completed();
    const std::uint64_t failed = load_->failed();
    const std::uint64_t dOk = completed - obsCompletedPrev_;
    const std::uint64_t dFail = failed - obsFailedPrev_;
    obsCompletedPrev_ = completed;
    obsFailedPrev_ = failed;

    // Latency samples appended since the previous sub-window feed both
    // the latency histogram and the latency-SLO miss count.
    const auto &lat = load_->latencySamples();
    std::uint64_t latMisses = 0;
    for (; latCursor_ < lat.size(); ++latCursor_) {
        metrics_.observe(mid_.latency, lat[latCursor_].second);
        if (cfg_.slo.latencyObjective > 0 &&
            lat[latCursor_].second > cfg_.slo.latencyObjective)
            ++latMisses;
    }

    // The SLO tracker runs even when the metrics registry is disabled
    // (--notrace): burn alerts are a control-plane product, not a
    // recording product.
    if (slo_)
        slo_->addWindow(wend, dOk, dFail, latMisses);

    metrics_.add(mid_.completed, dOk);
    metrics_.add(mid_.failed, dFail);
    const std::uint64_t shed = currentShedTotal();
    metrics_.add(mid_.shed, shed - obsShedPrev_);
    obsShedPrev_ = shed;

    for (std::size_t k = 0; k < balancers_.size(); ++k)
        metrics_.set(mid_.lbFlows[k],
                     static_cast<double>(balancers_[k]->flowsActive()));

    const double wsec = secondsFromTicks(wend - wstart);
    int up = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        const ServerSlot &sl = slots_[s];
        if (sl.up)
            ++up;
        const KernelStack &k = sl.gen.machine->kernel();
        metrics_.set(mid_.mEstablished[s],
                     static_cast<double>(k.stats().establishedCurr));
        metrics_.set(mid_.mTimeWait[s],
                     static_cast<double>(k.timeWaitTable().size()));
        metrics_.set(mid_.mPressure[s],
                     static_cast<double>(static_cast<int>(
                         sl.gen.machine->pressure().level())));
        // A restart swaps in a fresh generation whose served() restarts
        // at zero; treat the post-restart count as the window's delta.
        const std::uint64_t served = sl.gen.app->served();
        const std::uint64_t d = served >= obsServedPrev_[s]
                                    ? served - obsServedPrev_[s]
                                    : served;
        obsServedPrev_[s] = served;
        metrics_.set(mid_.mCps[s],
                     wsec > 0.0 ? static_cast<double>(d) / wsec : 0.0);
    }
    metrics_.set(mid_.upMachines, static_cast<double>(up));

    int healthy = 0;
    if (!balancers_.empty()) {
        const L4Balancer &b0 = *balancers_.front();
        for (int m = 0; m < b0.targetCount(); ++m)
            if (b0.healthy(m))
                ++healthy;
    }
    metrics_.set(mid_.healthyTargets, static_cast<double>(healthy));
    const std::uint64_t tot = dOk + dFail;
    metrics_.set(mid_.successRatio,
                 tot > 0 ? static_cast<double>(dOk) /
                               static_cast<double>(tot)
                         : 1.0);
    if (slo_) {
        double fb = 0.0;
        double sb = 0.0;
        for (const SloObjective &o : slo_->objectives()) {
            fb = std::max(fb, o.fastBurn);
            sb = std::max(sb, o.slowBurn);
        }
        metrics_.set(mid_.fastBurn, fb);
        metrics_.set(mid_.slowBurn, sb);
    }
    metrics_.sample(wend);
}

template <typename Fn>
void
FleetTestbed::forEachGeneration(Fn fn) const
{
    for (const ServerSlot &sl : slots_)
        fn(sl.gen);
    for (const Generation &g : retired_)
        fn(g);
}

std::uint64_t
FleetTestbed::currentFingerprint() const
{
    Fingerprint fp;
    if (!tiered()) {
        // The wire's delivery-sequence hash already pins the entire
        // network behavior of the run; fold the simulator's independent
        // counters on top so a bookkeeping divergence (client, kernel,
        // clock) changes the fingerprint even if it never reached the
        // wire. Everything folded here is simulated state — trace
        // configuration must not move any of it.
        const Generation &g = slots_[0].gen;
        Machine &m = *g.machine;
        KernelStack &k = m.kernel();
        fp.mix(fabric_->seqHash());
        fp.mix(eq_->now());
        fp.mix(load_->started());
        fp.mix(load_->completed());
        fp.mix(load_->failed());
        fp.mix(load_->responses());
        fp.mix(load_->timeouts());
        fp.mix(load_->bytesReceived());
        fp.mix(g.app->served());
        const KernelStats &ks = k.stats();
        fp.mix(ks.rxPackets);
        fp.mix(ks.txPackets);
        fp.mix(ks.steeredPackets);
        fp.mix(ks.rstSent);
        fp.mix(ks.acceptedConns);
        fp.mix(ks.activeConns);
        fp.mix(ks.slowPathAccepts);
        fp.mix(ks.socketsCreated);
        fp.mix(ks.socketsDestroyed);
        fp.mix(ks.acceptOverflows);
        fp.mix(ks.timeWaitReaped);
        fp.mix(ks.synRetransmits);
        fp.mix(ks.synDropped);
        fp.mix(ks.synCookiesSent);
        fp.mix(ks.synCookiesValidated);
        fp.mix(ks.synRcvdReaped);
        fp.mix(ks.acceptQueueRsts);
        // Connection-lifetime subsystem counters: TW lifecycle
        // decisions, port exhaustion, ehash probing work, and the arena
        // census are all deterministic simulated behavior.
        fp.mix(ks.establishedPeak);
        fp.mix(ks.timeWaitEntered);
        fp.mix(ks.timeWaitRecycled);
        fp.mix(ks.timeWaitReused);
        fp.mix(ks.timeWaitSynDropped);
        fp.mix(ks.timeWaitAcks);
        fp.mix(ks.portAllocFailures);
        fp.mix(k.tcbArena().totalCreated());
        fp.mix(k.tcbArena().peakLive());
        fp.mix(k.timeWaitTable().peakSize());
        fp.mix(k.ehashLookups());
        fp.mix(k.ehashProbesWalked());
        fp.mix(k.ehashLookupCycles());
        fp.mix(k.ehashResizes());
        fp.mix(fabric_->duplicated());
        fp.mix(load_->synRetransmits());
        fp.mix(load_->requestRetransmits());
        fp.mix(load_->retxGiveups());
        fp.mix(m.cpu().totalBusyTicks());
        fp.mix(m.cache().totalAccesses());
        fp.mix(m.cache().totalMisses());
        // Overload-control state is simulated behavior too: a
        // divergence in pressure transitions or admission decisions
        // must flip the fingerprint even when the goodput happens to
        // match.
        fp.mix(ks.backlogDropped);
        fp.mix(ks.synGateDropped);
        fp.mix(m.pressure().transitions());
        fp.mix(static_cast<std::uint64_t>(m.pressure().level()));
        fp.mix(g.app->servedDegraded());
        fp.mix(g.app->shedConns());
        fp.mix(load_->healthStarted());
        fp.mix(load_->healthCompleted());
        fp.mix(load_->healthFailed());
        if (const AdmissionController *a = g.admission.get()) {
            fp.mix(a->offered());
            fp.mix(a->admitted());
            fp.mix(a->degraded());
            fp.mix(a->shedDeadline());
            fp.mix(a->shedWorkerCap());
            fp.mix(a->shedPressure());
            fp.mix(a->released());
            fp.mix(a->healthOffered());
            fp.mix(a->healthAdmitted());
            fp.mix(a->releaseUnderflows());
        }
        return fp.value();
    }

    fp.mix(fabric_->seqHash());
    fp.mix(eq_->now());
    fp.mix(load_->started());
    fp.mix(load_->completed());
    fp.mix(load_->failed());
    fp.mix(load_->responses());
    fp.mix(load_->timeouts());
    fp.mix(load_->bytesReceived());
    fp.mix(load_->synRetransmits());
    fp.mix(load_->requestRetransmits());
    fp.mix(load_->retxGiveups());
    fp.mix(load_->healthStarted());
    fp.mix(load_->healthCompleted());
    fp.mix(load_->healthFailed());
    forEachGeneration([&fp](const Generation &g) {
        const KernelStats &ks = g.machine->kernel().stats();
        fp.mix(ks.rxPackets);
        fp.mix(ks.txPackets);
        fp.mix(ks.acceptedConns);
        fp.mix(ks.rstSent);
        fp.mix(ks.socketsCreated);
        fp.mix(ks.socketsDestroyed);
        fp.mix(ks.timeWaitEntered);
        fp.mix(ks.synRcvdReaped);
        fp.mix(ks.backlogDropped);
        fp.mix(ks.synGateDropped);
        fp.mix(g.machine->cpu().totalBusyTicks());
        fp.mix(g.machine->pressure().transitions());
        fp.mix(static_cast<std::uint64_t>(
            g.machine->pressure().level()));
        fp.mix(g.app->served());
        fp.mix(g.app->servedDegraded());
        fp.mix(g.app->shedConns());
        fp.mix(g.port->txSuppressed());
        fp.mix(g.port->degradeDropped());
        fp.mix(g.port->degradeDelayed());
        if (g.admission) {
            fp.mix(g.admission->offered());
            fp.mix(g.admission->admitted());
            fp.mix(g.admission->degraded());
            fp.mix(g.admission->shed());
            fp.mix(g.admission->released());
        }
    });
    for (const auto &b : balancers_)
        fp.mix(b->counterHash());
    fp.mix(orch_.crashes);
    fp.mix(orch_.restarts);
    fp.mix(orch_.lbCrashes);
    fp.mix(orch_.vipTakeovers);
    fp.mix(orch_.corpseRsts);
    fp.mix(orch_.blackholed);
    fp.mix(orch_.degradesApplied);
    fp.mix(orch_.flapTransitions);
    fp.mix(orch_.partitionsArmed);
    fp.mix(fabric_->partitionDropped());
    fp.mix(incidents_.hash());
    return fp.value();
}

ExperimentResult
FleetTestbed::collect()
{
    // Every collection point doubles as an invariant pass (the kFinal
    // default): manual drivers get checked exactly where they measure.
    if (cfg_.base.checkLevel != CheckLevel::kOff)
        checks_.runAll(eq_->now());

    ExperimentResult r;
    r.cps = load_->throughputSinceMark();
    r.rps = load_->requestThroughputSinceMark();

    const Tick span = eq_->now() - markTick_;
    r.windowSpan = span;
    r.simEventsRun = eq_->executed() - eventsRunMark_;
    r.simEventsScheduled = eq_->scheduled() - eventsScheduledMark_;
    r.simTicks = span;

    // Per-machine window deltas (live generations; generations lost
    // mid-window banked their deltas into carry_ at restart). Phases,
    // locks and utilization cover live generations only.
    std::uint64_t acc = carry_.accesses, mis = carry_.misses;
    std::uint64_t at = carry_.activeTotal, al = carry_.activeLocal;
    r.served = carry_.served;
    r.slowPathAccepts = carry_.slowPath;
    r.steeredPackets = carry_.steered;
    r.rxPackets = carry_.rx;
    PhaseSnapshot combined;
    std::map<std::string, LockClassStats> lockSum;
    int liveCores = 0;
    for (ServerSlot &sl : slots_) {
        Machine &m = *sl.gen.machine;
        const KernelStats &ks = m.kernel().stats();
        r.served += sl.gen.app->served() - sl.servedMark;
        r.slowPathAccepts += ks.slowPathAccepts -
                             sl.ksMark.slowPathAccepts;
        r.steeredPackets += ks.steeredPackets -
                            sl.ksMark.steeredPackets;
        r.rxPackets += ks.rxPackets - sl.ksMark.rxPackets;
        at += ks.activePktTotal - sl.ksMark.activePktTotal;
        al += ks.activePktLocal - sl.ksMark.activePktLocal;
        acc += m.cache().totalAccesses() - sl.accessesMark;
        mis += m.cache().totalMisses() - sl.missesMark;

        for (double u : m.utilizationSinceMark())
            r.coreUtil.push_back(u);
        liveCores += m.numCores();

        // One machine reports its lock classes whole; a sum over
        // several keeps only the additive counters (maxWaitTicks is one
        // machine's peak).
        std::map<std::string, LockClassStats> ld =
            lockDelta(sl.lockMark, m.locks().snapshot());
        if (slots_.size() == 1)
            lockSum = std::move(ld);
        for (const auto &kv : ld) {
            LockClassStats &dst = lockSum[kv.first];
            dst.acquisitions += kv.second.acquisitions;
            dst.contentions += kv.second.contentions;
            dst.waitTicks += kv.second.waitTicks;
            dst.holdTicks += kv.second.holdTicks;
        }

        PhaseSnapshot d = phaseDelta(sl.phaseMark,
                                     m.tracer().phaseSnapshot());
        for (const auto &row : d.perCore)
            combined.perCore.push_back(row);
        for (const auto &kv : d.folded)
            combined.folded[kv.first] += kv.second;
        combined.untracked += d.untracked;

        r.traceEventsRecorded += m.tracer().depthNotes();
        r.traceEventsOverwritten += m.tracer().depthNotesDropped();
        if (!cfg_.base.machine.traceEnabled) {
            fsim_assert(m.tracer().connSpans().allocations() == 0 &&
                        "span tracing allocated with tracing disabled");
        }
    }
    r.locks = lockSum;
    r.l3MissRate = acc ? static_cast<double>(mis) /
                         static_cast<double>(acc)
                       : 0.0;
    r.localPktProportion = at ? static_cast<double>(al) /
                                static_cast<double>(at)
                              : 0.0;
    r.clientFailures = load_->failed() - failedMark_;

    const double totalCycles = static_cast<double>(span) * liveCores;
    if (totalCycles > 0) {
        for (const auto &kv : r.locks)
            r.lockCycleShare[kv.first] =
                static_cast<double>(kv.second.waitTicks) / totalCycles;
    }
    r.phaseCycles = combined;
    r.phases = phaseBreakdown(combined, span);
    r.foldedStacks = foldedStacks(combined);

    if (!tiered()) {
        // Per-machine forensics over the window: queue-depth
        // timelines, connection span stages, plus the raw traces when
        // the caller wants to export them (Perfetto).
        const Tracer &tr = machine(0).tracer();
        for (int q = 0; q < kNumTraceQueues; ++q) {
            auto qid = static_cast<TraceQueueId>(q);
            std::vector<QueueSample> tl =
                queueTimeline(tr, qid, markTick_, eq_->now());
            if (!tl.empty())
                r.queueTimelines[traceQueueName(qid)] = std::move(tl);
        }
        r.spanForensics =
            buildSpanForensics(tr.connSpans(), spanCompletedMark_);
        if (spanRecorder_) {
            const auto &all = spanRecorder_->completed();
            std::size_t from = std::min(rawSpanMark_, all.size());
            r.spanTraces =
                std::make_shared<const std::vector<ConnSpanTrace>>(
                    all.begin() + static_cast<std::ptrdiff_t>(from),
                    all.end());
        }
    }

    r.fingerprint = currentFingerprint();
    r.invariants = checks_.report();

    // Overload block: run totals summed over every machine generation
    // (each controller's arithmetic identities survive summation).
    OverloadResult &ov = r.overload;
    ov.enabled = cfg_.base.machine.overload.enabled;
    ov.spec = serializeOverloadSpec(cfg_.base.machine.overload);
    forEachGeneration([&ov](const Generation &g) {
        if (g.admission) {
            ov.offered += g.admission->offered();
            ov.admitted += g.admission->admitted();
            ov.degraded += g.admission->degraded();
            ov.shed += g.admission->shed();
            ov.shedDeadline += g.admission->shedDeadline();
            ov.shedWorkerCap += g.admission->shedWorkerCap();
            ov.shedPressure += g.admission->shedPressure();
            ov.released += g.admission->released();
            ov.inflight += g.admission->inflightTotal();
            ov.healthOffered += g.admission->healthOffered();
            ov.healthAdmitted += g.admission->healthAdmitted();
        }
        ov.servedDegraded += g.app->servedDegraded();
        const KernelStats &ks = g.machine->kernel().stats();
        ov.backlogDropped += ks.backlogDropped;
        ov.synGateDropped += ks.synGateDropped;
        const PressureState &pr = g.machine->pressure();
        ov.pressureTransitions += pr.transitions();
        ov.pressurePeak = std::max(ov.pressurePeak,
                                   static_cast<int>(pr.peakLevel()));
        ov.softirqDepthPeak = std::max<std::uint64_t>(
            ov.softirqDepthPeak, pr.softirqDepthPeak());
        ov.acceptDepthPeak = std::max<std::uint64_t>(
            ov.acceptDepthPeak, pr.acceptDepthPeak());
        for (int p = 0; p < g.machine->numCores(); ++p) {
            std::size_t rp =
                g.machine->kernel().process(p).epoll->readyPeak();
            ov.epollReadyPeak = std::max<std::uint64_t>(
                ov.epollReadyPeak, rp);
        }
    });
    for (const ServerSlot &sl : slots_) {
        if (sl.up)
            ov.pressureLevel = std::max(
                ov.pressureLevel,
                static_cast<int>(sl.gen.machine->pressure().level()));
    }
    ov.latencyP50 = load_->latencyPercentileSinceMark(0.50);
    ov.latencyP99 = load_->latencyPercentileSinceMark(0.99);
    ov.latencySamples = load_->latencySamplesSinceMark();
    ov.healthProbesStarted = load_->healthStarted();
    ov.healthProbesCompleted = load_->healthCompleted();
    ov.healthProbesFailed = load_->healthFailed();

    // Connection census: run totals over every generation.
    ConnResult &cn = r.conn;
    forEachGeneration([&cn](const Generation &g) {
        const KernelStack &k = g.machine->kernel();
        const KernelStats &ks = k.stats();
        const TcbArena &arena = k.tcbArena();
        cn.tcbLive += arena.live();
        cn.tcbLivePeak += arena.peakLive();
        cn.tcbCreated += arena.totalCreated();
        cn.slabBytes += arena.slabBytes();
        if (cn.bytesPerConn == 0)
            cn.bytesPerConn = arena.bytesPerConn();
        cn.establishedCurr += ks.establishedCurr;
        cn.establishedPeak += ks.establishedPeak;
        cn.timeWaitCurr += k.timeWaitTable().size();
        cn.timeWaitPeak += k.timeWaitTable().peakSize();
        cn.timeWaitEntered += ks.timeWaitEntered;
        cn.timeWaitReaped += ks.timeWaitReaped;
        cn.timeWaitRecycled += ks.timeWaitRecycled;
        cn.timeWaitReused += ks.timeWaitReused;
        cn.timeWaitSynDropped += ks.timeWaitSynDropped;
        cn.timeWaitAcks += ks.timeWaitAcks;
        cn.portAllocFailures += ks.portAllocFailures;
        cn.ehashLookups += k.ehashLookups();
        cn.ehashProbesWalked += k.ehashProbesWalked();
        cn.ehashLookupCycles += k.ehashLookupCycles();
        cn.ehashResizes += k.ehashResizes();
    });
    if (cn.ehashLookups > 0) {
        cn.avgProbeLen = static_cast<double>(cn.ehashProbesWalked) /
                         static_cast<double>(cn.ehashLookups);
        cn.cyclesPerLookup =
            static_cast<double>(cn.ehashLookupCycles) /
            static_cast<double>(cn.ehashLookups);
    }

    if (!tiered())
        return r;

    // Fleet block.
    FleetResult &fl = r.fleet;
    fl = orch_;
    fl.enabled = true;
    fl.serverMachines = cfg_.serverMachines;
    fl.balancers = cfg_.balancers;
    fl.policy = L4Balancer::policyName(cfg_.policy);
    // Every fleet field named after a balancer counter sums it over the
    // tier.
    auto addCounters = [&fl](const auto &c) {
#define RESULT_METRIC_fleet(field, key, type, better, gate) \
        if constexpr (requires { c.field; })                 \
            fl.field += c.field;
#include "stats/result_metrics.def"
    };
    for (const auto &b : balancers_) {
        addCounters(b->counters());
        fl.flowsActive += b->flowsActive();
    }
    fl.healthMode = L4Balancer::healthModeName(cfg_.healthMode);
    forEachGeneration([&fl](const Generation &g) {
        fl.txSuppressed += g.port->txSuppressed();
        fl.degradeDropped += g.port->degradeDropped();
        fl.degradeDelayed += g.port->degradeDelayed();
    });
    fl.linkPackets = fabric_->linkPackets();
    fl.linkQueuedTicks = fabric_->linkQueuedTicks();
    fl.partitionDropped = fabric_->partitionDropped();
    fl.incidentsTotal = incidents_.count();
    double mttdSum = 0.0, mttrSum = 0.0;
    for (const Incident &inc : incidents_.incidents()) {
        if (inc.detected) {
            ++fl.incidentsDetected;
            mttdSum += secondsFromTicks(inc.detectAt - inc.injectAt) *
                       1000.0;
        }
        if (inc.recovered) {
            ++fl.incidentsRecovered;
            mttrSum += secondsFromTicks(inc.recoverAt - inc.injectAt) *
                       1000.0;
        }
    }
    fl.mttdMsMean = fl.incidentsDetected
                        ? mttdSum / static_cast<double>(
                                        fl.incidentsDetected)
                        : 0.0;
    fl.mttrMsMean = fl.incidentsRecovered
                        ? mttrSum / static_cast<double>(
                                        fl.incidentsRecovered)
                        : 0.0;
    const std::uint64_t winCompleted = load_->completed() -
                                       completedMark_;
    const std::uint64_t winFailed = r.clientFailures;
    fl.requestSuccessRatio =
        winCompleted + winFailed > 0
            ? static_cast<double>(winCompleted) /
                  static_cast<double>(winCompleted + winFailed)
            : 0.0;

    // Distributed-trace stitching: join every machine-side connection
    // span that carries a trace context onto its client/LB record.
    // Zombie generations contribute too — a span served by a machine
    // that later crashed still belongs to its end-to-end trace.
    // In-flight spans join too: a server stuck in FIN retransmission
    // after its NAT flow died (balancer failover mid-teardown) still
    // served its request; orderly-closed spans outrank these.
    forEachGeneration([this](const Generation &g) {
        const ConnSpanLog &sl = g.machine->tracer().connSpans();
        for (const ConnSpanRecord rec : sl.completed())
            traceLog_.stitchMachineSpan(rec);
        for (const ConnSpanRecord rec : sl.liveSnapshot())
            traceLog_.stitchMachineSpan(rec);
    });
    fl.tracesStarted = traceLog_.clientStarts();
    fl.tracesCompleted = traceLog_.clientCompleted();
    fl.tracesStitched = traceLog_.machineSpansStitched();
    fl.traceOrphans = traceLog_.orphans();
    fl.traceDuplicates = traceLog_.duplicates();

    // Span/CPU reconciliation, fleet-wide: recorded exec-span cycles on
    // a core can never exceed what that core actually ran.
    forEachGeneration([&fl](const Generation &g) {
        Machine &m = *g.machine;
        for (int c = 0; c < m.numCores(); ++c)
            if (m.tracer().connSpans().execSelfTicks(c) >
                m.cpu().core(c).busyTicks())
                ++fl.spanReconcileViolations;
    });

    if (slo_) {
        fl.sloFastAlerts = slo_->fastAlerts();
        fl.sloSlowAlerts = slo_->slowAlerts();
        const Tick first = slo_->firstFastAlert();
        fl.sloFirstFastAlertMs =
            first > 0 ? secondsFromTicks(first) * 1000.0 : 0.0;
    }

    if (!cfg_.base.machine.traceEnabled) {
        fsim_assert(traceLog_.allocations() == 0 &&
                    "fleet tracing allocated with tracing disabled");
        fsim_assert(metrics_.allocations() == 0 &&
                    "metrics sampled with tracing disabled");
    }
    r.timeseries = metrics_.snapshot();
    r.fleetTrace = buildFleetTraceForensics(
        traceLog_, ticksFromUsec(cfg_.forwardDelayUsec));
    return r;
}

ExperimentResult
FleetTestbed::run()
{
    startLoad();
    runUntilChecked(eq_->now() + ticksFromSeconds(cfg_.base.warmupSec));
    markWindows();

    // Split the measurement into statWindows sub-windows so goodput
    // (and, for the fleet of one, lockstat and SYN counters) evolution
    // is visible. Lock/SYN deltas stay empty behind a balancer tier (a
    // restart resets one machine's share mid-window).
    const int wins = std::max(1, cfg_.base.statWindows);
    const Tick begin = eq_->now();
    const Tick measure = ticksFromSeconds(cfg_.base.measureSec);
    std::vector<LockWindow> windows;
    std::uint64_t completedPrev = load_->completed();
    std::map<std::string, LockClassStats> locksPrev =
        machine(0).locks().snapshot();
    KernelStats ksPrev = machine(0).kernel().stats();
    for (int w = 0; w < wins; ++w) {
        LockWindow lw;
        lw.start = eq_->now();
        runUntilChecked(begin + measure * (w + 1) / wins);
        lw.end = eq_->now();
        lw.completed = load_->completed() - completedPrev;
        const double wsec = secondsFromTicks(lw.end - lw.start);
        lw.goodput = wsec > 0.0
                         ? static_cast<double>(lw.completed) / wsec
                         : 0.0;
        if (!tiered()) {
            std::map<std::string, LockClassStats> cur =
                machine(0).locks().snapshot();
            lw.locks = lockDelta(locksPrev, cur);
            locksPrev = std::move(cur);
            const KernelStats &ks = machine(0).kernel().stats();
            lw.synRetransmits = ks.synRetransmits - ksPrev.synRetransmits;
            lw.synCookiesSent = ks.synCookiesSent - ksPrev.synCookiesSent;
            lw.synCookiesValidated =
                ks.synCookiesValidated - ksPrev.synCookiesValidated;
            lw.acceptQueueRsts =
                ks.acceptQueueRsts - ksPrev.acceptQueueRsts;
            ksPrev = ks;
        }
        sampleObservability(lw.start, lw.end);
        windows.push_back(std::move(lw));
        completedPrev = load_->completed();
    }

    ExperimentResult r = collect();
    r.lockWindows = std::move(windows);
    return r;
}

ExperimentResult
runFleetExperiment(const FleetConfig &cfg)
{
    FleetTestbed bed(cfg);
    return bed.run();
}

namespace
{

FleetConfig
fleetOfOne(const ExperimentConfig &cfg)
{
    FleetConfig fc;
    fc.base = cfg;
    fc.serverMachines = 1;
    fc.balancers = 0;
    return fc;
}

} // anonymous namespace

Testbed::Testbed(const ExperimentConfig &cfg)
    : FleetTestbed(fleetOfOne(cfg))
{
}

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    Testbed bed(cfg);
    return bed.run();
}

} // namespace fsim
