#include "check/invariants.hh"

#include <cstdio>

#include "app/app_base.hh"
#include "app/http_load.hh"
#include "app/machine.hh"
#include "net/wire.hh"
#include "overload/admission.hh"

namespace fsim
{

std::string
InvariantReport::summary() const
{
    char buf[160];
    if (ok()) {
        std::snprintf(buf, sizeof(buf), "ok, %llu checks",
                      static_cast<unsigned long long>(checksRun));
        return buf;
    }
    std::string s;
    std::snprintf(buf, sizeof(buf), "%llu violation(s):",
                  static_cast<unsigned long long>(violationCount));
    s = buf;
    for (const InvariantViolation &v : violations) {
        s += " [";
        s += v.name;
        s += "]";
    }
    return s;
}

void
InvariantReport::merge(const InvariantReport &other)
{
    checksRun += other.checksRun;
    violationCount += other.violationCount;
    for (const InvariantViolation &v : other.violations) {
        if (violations.size() >= InvariantRegistry::kMaxStored)
            break;
        violations.push_back(v);
    }
}

void
InvariantRegistry::add(std::string name, Check fn)
{
    checks_.push_back(Entry{std::move(name), std::move(fn)});
}

std::size_t
InvariantRegistry::runAll(Tick t)
{
    std::size_t found = 0;
    for (const Entry &e : checks_) {
        ++report_.checksRun;
        std::string why;
        if (e.fn(t, why))
            continue;
        ++found;
        ++report_.violationCount;
        if (report_.violations.size() < kMaxStored)
            report_.violations.push_back(
                InvariantViolation{e.name, std::move(why), t});
    }
    return found;
}

namespace
{

std::string
eqDetail(const char *lhs, std::uint64_t lv, const char *rhs,
         std::uint64_t rv)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s = %llu but %s = %llu", lhs,
                  static_cast<unsigned long long>(lv), rhs,
                  static_cast<unsigned long long>(rv));
    return buf;
}

} // anonymous namespace

void
registerStandardInvariants(InvariantRegistry &reg, Machine &machine,
                           HttpLoad &load, Wire &wire)
{
    reg.add("packet-conservation", [&wire](Tick, std::string &why) {
        // Every injected duplicate adds one extra delivery, so it sits on
        // the "sent" side of the ledger next to transmitted().
        std::uint64_t sent = wire.transmitted() + wire.duplicated();
        std::uint64_t accounted = wire.delivered() + wire.lost() +
                                  wire.dropped() + wire.inFlight();
        if (sent == accounted)
            return true;
        why = eqDetail("transmitted+duplicated", sent,
                       "delivered+lost+dropped+inflight", accounted);
        return false;
    });

    reg.add("connection-conservation", [&load](Tick, std::string &why) {
        std::uint64_t accounted = load.completed() + load.failed() +
                                  load.inFlight();
        if (load.started() == accounted)
            return true;
        why = eqDetail("started", load.started(),
                       "completed+failed+inflight", accounted);
        return false;
    });

    reg.add("socket-conservation", [&machine](Tick, std::string &why) {
        const KernelStats &ks = machine.kernel().stats();
        std::uint64_t accounted = ks.socketsDestroyed +
                                  machine.kernel().liveSockets();
        if (ks.socketsCreated == accounted)
            return true;
        why = eqDetail("sockets created", ks.socketsCreated,
                       "destroyed+live", accounted);
        return false;
    });

    if (machine.tracer().enabled()) {
        reg.add("cycle-conservation", [&machine](Tick, std::string &why) {
            PhaseSnapshot s = machine.tracer().phaseSnapshot();
            std::uint64_t attributed = 0;
            for (const auto &core : s.perCore)
                for (std::uint64_t v : core)
                    attributed += v;
            std::uint64_t busy = machine.cpu().totalBusyTicks();
            if (attributed == busy)
                return true;
            why = eqDetail("attributed cycles", attributed,
                           "CpuModel busy ticks", busy);
            return false;
        });
    }

    reg.add("fd-consistency", [&machine](Tick, std::string &why) {
        // Accounting identity: every VFS file is reachable from exactly
        // one process fd table, and each table's open-fd count matches
        // its file map. Killed processes keep their non-listen files
        // (the kernel only reaps their listen clones), so all processes
        // are counted, alive or not.
        KernelStack &k = machine.kernel();
        std::uint64_t total_files = 0;
        for (int p = 0; p < k.numProcesses(); ++p) {
            KProcess &proc = k.process(p);
            std::size_t files = proc.filesLive;
            int open = proc.fds.openCount();
            if (static_cast<std::size_t>(open) != files) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "process %d: %d open fds vs %zu files",
                              p, open, files);
                why = buf;
                return false;
            }
            total_files += files;
        }
        std::uint64_t vfs_live = k.vfs().liveFiles();
        if (vfs_live == total_files)
            return true;
        why = eqDetail("VFS live files", vfs_live,
                       "files reachable from process fd tables",
                       total_files);
        return false;
    });

    reg.add("accept-queue-bounds", [&machine](Tick, std::string &why) {
        for (const Socket *s : machine.kernel().allSockets()) {
            if (s->kind != SockKind::kListen)
                continue;
            const ListenState &ls = *s->listen;
            if (ls.acceptQueue.size() > ls.backlog) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "listener %u:%u queue depth %zu > backlog "
                              "%zu",
                              ls.bindAddr, ls.bindPort,
                              ls.acceptQueue.size(), ls.backlog);
                why = buf;
                return false;
            }
        }
        return true;
    });
}

void
registerQuiesceInvariants(InvariantRegistry &reg, Machine &machine,
                          HttpLoad &load)
{
    reg.add("client-drained", [&load](Tick, std::string &why) {
        if (load.inFlight() == 0)
            return true;
        why = eqDetail("client connections in flight", load.inFlight(),
                       "expected", 0);
        return false;
    });

    reg.add("tcb-leak", [&machine](Tick, std::string &why) {
        std::uint64_t conns = 0;
        for (const Socket *s : machine.kernel().allSockets())
            if (s->kind == SockKind::kConnection)
                ++conns;
        if (conns == 0)
            return true;
        why = eqDetail("connection TCBs alive after quiesce", conns,
                       "expected", 0);
        return false;
    });

    // Snapshot the file population now (setup done, listeners open, no
    // traffic yet): a drained run must return the VFS to exactly this
    // state, else connection files leaked.
    std::uint64_t baseline_files = machine.kernel().vfs().liveFiles();
    reg.add("vfs-leak", [&machine, baseline_files](Tick,
                                                   std::string &why) {
        std::uint64_t vfs_live = machine.kernel().vfs().liveFiles();
        if (vfs_live == baseline_files)
            return true;
        why = eqDetail("VFS live files after quiesce", vfs_live,
                       "listen-only baseline", baseline_files);
        return false;
    });
}

void
registerOverloadInvariants(InvariantRegistry &reg,
                           const AdmissionController &adm,
                           Machine &machine, const AppBase &app)
{
    reg.add("admission-conservation", [&adm](Tick, std::string &why) {
        std::uint64_t accounted = adm.admitted() + adm.degraded() +
                                  adm.shed();
        if (adm.offered() == accounted)
            return true;
        why = eqDetail("offered", adm.offered(),
                       "admitted+degraded+shed", accounted);
        return false;
    });

    reg.add("admission-inflight", [&adm](Tick, std::string &why) {
        std::uint64_t entered = adm.admitted() + adm.degraded();
        std::uint64_t accounted = adm.released() + adm.inflightTotal();
        if (entered == accounted)
            return true;
        why = eqDetail("admitted+degraded", entered,
                       "released+inflight", accounted);
        return false;
    });

    reg.add("admission-release-underflow",
            [&adm](Tick, std::string &why) {
        if (adm.releaseUnderflows() == 0)
            return true;
        why = eqDetail("release underflows", adm.releaseUnderflows(),
                       "expected", 0);
        return false;
    });

    reg.add("admission-offered-accepts",
            [&adm, &machine](Tick, std::string &why) {
        const KernelStats &ks = machine.kernel().stats();
        if (adm.offered() == ks.acceptedConns)
            return true;
        why = eqDetail("admission offered", adm.offered(),
                       "kernel accepted", ks.acceptedConns);
        return false;
    });

    reg.add("admission-app-shed", [&adm, &app](Tick, std::string &why) {
        if (app.shedConns() == adm.shed())
            return true;
        why = eqDetail("app shed closes", app.shedConns(),
                       "controller sheds", adm.shed());
        return false;
    });

    reg.add("pressure-backlog-drops",
            [&machine](Tick, std::string &why) {
        const KernelStats &ks = machine.kernel().stats();
        std::uint64_t ps = machine.pressure().backlogDrops();
        if (ps == ks.backlogDropped)
            return true;
        why = eqDetail("pressure backlog drops", ps,
                       "kernel backlogDropped", ks.backlogDropped);
        return false;
    });

    reg.add("syn-gate-accounting", [&machine](Tick, std::string &why) {
        // A disabled gate must never drop; the counter moving with the
        // knob off would mean the gate check leaked into stock paths.
        const KernelStats &ks = machine.kernel().stats();
        if (machine.config().overload.synGate > 0 ||
            ks.synGateDropped == 0)
            return true;
        why = eqDetail("SYN gate drops with gate disabled",
                       ks.synGateDropped, "expected", 0);
        return false;
    });
}

} // namespace fsim
