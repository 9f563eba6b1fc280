/**
 * @file
 * Accept-queue overflow / backlog-drop coverage: SYN floods against
 * tiny backlogs on every kernel flavor, conservation across the drop
 * path, and a full-testbed overload where the accept-queue-bounds
 * invariant must hold while overflows are happening.
 */

#include <gtest/gtest.h>

#include <memory>

#include "app/machine.hh"
#include "check/invariants.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

constexpr IpAddr kClientIp = 0xac100001;

struct OverflowFixture : public ::testing::Test
{
    EventQueue eq;
    Wire wire{eq, ticksFromUsec(10)};
    std::unique_ptr<Machine> m;
    std::uint64_t rstSeen = 0;
    std::uint64_t synAckSeen = 0;

    void
    build(const KernelConfig &kc, int cores = 2)
    {
        MachineConfig mc;
        mc.cores = cores;
        mc.kernel = kc;
        mc.listenIps = 1;
        m = std::make_unique<Machine>(eq, wire, mc);
        wire.attachRange(kClientIp, kClientIp + 0xffff,
                         [this](const Packet &p) {
                             if (p.has(kRst))
                                 ++rstSeen;
                             if (p.has(kSyn) && p.has(kAck))
                                 ++synAckSeen;
                         });
    }

    IpAddr srv() const { return m->addrs()[0]; }

    /** Complete @p n handshakes without ever calling accept(). */
    void
    flood(int n, Port first = 20000)
    {
        for (int i = 0; i < n; ++i) {
            FiveTuple t{kClientIp, srv(),
                        static_cast<Port>(first + i), 80};
            Packet syn;
            syn.tuple = t;
            syn.flags = kSyn;
            wire.transmit(syn, eq.now());
            eq.runAll();
            Packet ack;
            ack.tuple = t;
            ack.flags = kAck;
            wire.transmit(ack, eq.now());
            eq.runAll();
        }
    }
};

TEST_F(OverflowFixture, OverflowDestroysSocketAndConserves)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    Socket *lsock = k.sockFromFd(proc, lfd);
    lsock->listen->backlog = 3;

    flood(10);
    const KernelStats &ks = k.stats();
    EXPECT_EQ(ks.acceptOverflows, 7u);
    EXPECT_EQ(ks.rstSent, 7u);
    EXPECT_EQ(rstSeen, 7u);
    EXPECT_EQ(lsock->listen->acceptQueue.size(), 3u);
    // Every overflowed TCB was destroyed, none leaked.
    EXPECT_EQ(ks.socketsCreated, ks.socketsDestroyed + k.liveSockets());
    // Queue never exceeds the bound mid-flood either.
    EXPECT_LE(lsock->listen->acceptQueue.size(),
              lsock->listen->backlog);
}

TEST_F(OverflowFixture, QueuedConnectionsStillAcceptAfterOverflow)
{
    build(KernelConfig::base2632());
    KernelStack &k = m->kernel();
    int proc = k.addProcess(0);
    int lfd = k.listen(proc, srv(), 80);
    k.sockFromFd(proc, lfd)->listen->backlog = 2;

    flood(5);
    // The two queued survivors are intact and accept()-able.
    auto r1 = k.accept(proc, eq.now(), lfd);
    auto r2 = k.accept(proc, eq.now(), lfd);
    auto r3 = k.accept(proc, eq.now(), lfd);
    ASSERT_NE(r1.sock, nullptr);
    ASSERT_NE(r2.sock, nullptr);
    EXPECT_EQ(r3.sock, nullptr);
    EXPECT_EQ(r1.sock->state, TcpState::kEstablished);
    EXPECT_EQ(k.stats().acceptedConns, 2u);
}

TEST_F(OverflowFixture, ReuseportCloneOverflowsIndependently)
{
    build(KernelConfig::linux313(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    int p1 = k.addProcess(1);
    int l0 = k.listen(p0, srv(), 80);
    int l1 = k.listen(p1, srv(), 80);
    k.sockFromFd(p0, l0)->listen->backlog = 1;
    k.sockFromFd(p1, l1)->listen->backlog = 1;

    flood(40);
    const KernelStats &ks = k.stats();
    // Both clones saturate at one queued connection; the rest bounce.
    EXPECT_EQ(k.sockFromFd(p0, l0)->listen->acceptQueue.size() +
                  k.sockFromFd(p1, l1)->listen->acceptQueue.size(),
              2u);
    EXPECT_EQ(ks.acceptOverflows, 38u);
    EXPECT_EQ(ks.socketsCreated, ks.socketsDestroyed + k.liveSockets());
}

TEST_F(OverflowFixture, FastsocketLocalListenOverflows)
{
    build(KernelConfig::fastsocket(), 2);
    KernelStack &k = m->kernel();
    int p0 = k.addProcess(0);
    int p1 = k.addProcess(1);
    int l0 = k.listen(p0, srv(), 80);
    int l1 = k.listen(p1, srv(), 80);
    k.localListen(p0, srv(), 80);
    k.localListen(p1, srv(), 80);
    // Shrink every listen socket (global + local clones).
    for (const Socket *s : k.allSockets())
        if (s->kind == SockKind::kListen)
            s->listen->backlog = 2;

    flood(30);
    const KernelStats &ks = k.stats();
    EXPECT_GT(ks.acceptOverflows, 0u);
    EXPECT_EQ(ks.socketsCreated, ks.socketsDestroyed + k.liveSockets());
    for (const Socket *s : k.allSockets()) {
        if (s->kind == SockKind::kListen) {
            EXPECT_LE(s->listen->acceptQueue.size(),
                      s->listen->backlog);
        }
    }
    (void)l0;
    (void)l1;
}

TEST(TestbedOverflow, TinyBacklogUnderLoadKeepsInvariants)
{
    // Full closed-loop testbed with an absurdly small somaxconn: the
    // server sheds load via RSTs, clients see failures, yet every
    // conservation invariant (including accept-queue-bounds, evaluated
    // periodically mid-storm) must hold.
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    cfg.concurrencyPerCore = 100;
    cfg.listenBacklog = 4;
    cfg.checkLevel = CheckLevel::kPeriodic;
    cfg.checkIntervalSec = 0.002;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.summary();
    EXPECT_GT(r.clientFailures, 0u) << "backlog 4 must shed load";
}

TEST(TestbedOverflow, BacklogOverrideIsApplied)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 1;
    cfg.concurrencyPerCore = 10;
    cfg.listenBacklog = 7;
    Testbed bed(cfg);
    for (const Socket *s : bed.machine().kernel().allSockets()) {
        if (s->kind == SockKind::kListen) {
            EXPECT_EQ(s->listen->backlog, 7u);
        }
    }
}

} // anonymous namespace
} // namespace fsim
