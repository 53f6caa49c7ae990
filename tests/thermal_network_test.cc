/**
 * @file
 * Unit tests for the generic thermal network and its solvers.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "thermal/network.h"
#include "util/error.h"

namespace ht = hddtherm::thermal;
namespace hu = hddtherm::util;

namespace {

/// One node heated with Q, tied to an ambient boundary through G:
/// steady dT = Q / G, transient tau = C / G.
struct SingleNodeRig
{
    ht::ThermalNetwork net;
    ht::ThermalNetwork::NodeId ambient;
    ht::ThermalNetwork::NodeId body;

    SingleNodeRig(double c, double g, double q, double ambient_temp = 20.0)
    {
        ambient = net.addBoundaryNode("ambient", ambient_temp);
        body = net.addNode("body", c, ambient_temp);
        net.setConductance(body, ambient, g);
        net.setHeatInput(body, q);
    }
};

/**
 * Reference stepper: the dense elimination ThermalNetwork::step and
 * steadyState ran before they cached the factorization, kept verbatim so
 * the cached path can be held to bit-identity with it.  It mirrors the
 * network's public mutators; node ids are indices, as in the network.
 */
class ReferenceNetwork
{
  public:
    int addNode(double c, double t)
    {
        nodes_.push_back({c, t, 0.0, false});
        return int(nodes_.size()) - 1;
    }
    int addBoundaryNode(double t)
    {
        nodes_.push_back({0.0, t, 0.0, true});
        return int(nodes_.size()) - 1;
    }
    void setConductance(int a, int b, double g)
    {
        for (auto& e : edges_) {
            if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
                e.g = g;
                return;
            }
        }
        edges_.push_back({a, b, g});
    }
    void setHeatInput(int n, double w) { nodes_[std::size_t(n)].q = w; }
    void setTemperature(int n, double t) { nodes_[std::size_t(n)].t = t; }
    double temperature(int n) const { return nodes_[std::size_t(n)].t; }

    void step(double dt)
    {
        std::vector<int> free_index(nodes_.size(), -1);
        int nf = 0;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (!nodes_[i].boundary)
                free_index[i] = nf++;
        }
        if (nf == 0)
            return;
        std::vector<std::vector<double>> a(
            std::size_t(nf), std::vector<double>(std::size_t(nf), 0.0));
        std::vector<double> b(std::size_t(nf), 0.0);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            const int fi = free_index[i];
            if (fi < 0)
                continue;
            const double cdt = nodes_[i].c / dt;
            a[std::size_t(fi)][std::size_t(fi)] += cdt;
            b[std::size_t(fi)] += cdt * nodes_[i].t + nodes_[i].q;
        }
        addEdges(free_index, a, b);
        const auto x = solveLinear(std::move(a), std::move(b));
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (free_index[i] >= 0)
                nodes_[i].t = x[std::size_t(free_index[i])];
        }
    }

    std::vector<double> steadyState() const
    {
        std::vector<int> free_index(nodes_.size(), -1);
        int nf = 0;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (!nodes_[i].boundary)
                free_index[i] = nf++;
        }
        std::vector<std::vector<double>> a(
            std::size_t(nf), std::vector<double>(std::size_t(nf), 0.0));
        std::vector<double> b(std::size_t(nf), 0.0);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (free_index[i] >= 0)
                b[std::size_t(free_index[i])] = nodes_[i].q;
        }
        addEdges(free_index, a, b);
        const auto x = solveLinear(std::move(a), std::move(b));
        std::vector<double> out;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            out.push_back(free_index[i] >= 0 ? x[std::size_t(free_index[i])]
                                             : nodes_[i].t);
        }
        return out;
    }

  private:
    struct Node
    {
        double c, t, q;
        bool boundary;
    };
    struct Edge
    {
        int a, b;
        double g;
    };

    void addEdges(const std::vector<int>& free_index,
                  std::vector<std::vector<double>>& a,
                  std::vector<double>& b) const
    {
        for (const auto& e : edges_) {
            const int fa = free_index[std::size_t(e.a)];
            const int fb = free_index[std::size_t(e.b)];
            if (fa >= 0) {
                a[std::size_t(fa)][std::size_t(fa)] += e.g;
                if (fb >= 0)
                    a[std::size_t(fa)][std::size_t(fb)] -= e.g;
                else
                    b[std::size_t(fa)] += e.g * nodes_[std::size_t(e.b)].t;
            }
            if (fb >= 0) {
                a[std::size_t(fb)][std::size_t(fb)] += e.g;
                if (fa >= 0)
                    a[std::size_t(fb)][std::size_t(fa)] -= e.g;
                else
                    b[std::size_t(fb)] += e.g * nodes_[std::size_t(e.a)].t;
            }
        }
    }

    static std::vector<double> solveLinear(std::vector<std::vector<double>> a,
                                           std::vector<double> b)
    {
        const auto n = b.size();
        for (std::size_t col = 0; col < n; ++col) {
            std::size_t pivot = col;
            for (std::size_t r = col + 1; r < n; ++r) {
                if (std::fabs(a[r][col]) > std::fabs(a[pivot][col]))
                    pivot = r;
            }
            std::swap(a[col], a[pivot]);
            std::swap(b[col], b[pivot]);
            for (std::size_t r = col + 1; r < n; ++r) {
                const double f = a[r][col] / a[col][col];
                if (f == 0.0)
                    continue;
                for (std::size_t c = col; c < n; ++c)
                    a[r][c] -= f * a[col][c];
                b[r] -= f * b[col];
            }
        }
        std::vector<double> x(n, 0.0);
        for (std::size_t i = n; i-- > 0;) {
            double s = b[i];
            for (std::size_t c = i + 1; c < n; ++c)
                s -= a[i][c] * x[c];
            x[i] = s / a[i][i];
        }
        return x;
    }

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
};

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bitwise comparison of every node temperature; returns the first
/// differing node's description, or an empty string.
std::string
firstMismatch(const ht::ThermalNetwork& net, const ReferenceNetwork& ref)
{
    for (int i = 0; i < net.size(); ++i) {
        if (!bitEqual(net.temperature(i), ref.temperature(i))) {
            char buf[128];
            std::snprintf(buf, sizeof buf, "node %d: %.17g vs reference %.17g",
                          i, net.temperature(i), ref.temperature(i));
            return buf;
        }
    }
    return {};
}

} // namespace

TEST(ThermalNetwork, SingleNodeSteadyState)
{
    SingleNodeRig rig(100.0, 2.0, 10.0);
    const auto temps = rig.net.steadyState();
    EXPECT_DOUBLE_EQ(temps[std::size_t(rig.ambient)], 20.0);
    EXPECT_NEAR(temps[std::size_t(rig.body)], 25.0, 1e-9);
}

TEST(ThermalNetwork, TransientApproachesSteadyExponentially)
{
    SingleNodeRig rig(100.0, 2.0, 10.0);
    const double tau = 100.0 / 2.0; // 50 s
    rig.net.advance(tau, 0.01);
    // After one time constant: 1 - e^-1 of the 5 K rise.
    const double expected = 20.0 + 5.0 * (1.0 - std::exp(-1.0));
    EXPECT_NEAR(rig.net.temperature(rig.body), expected, 0.02);
}

TEST(ThermalNetwork, ImplicitStepStableWithTinyCapacitance)
{
    // A nearly massless node (like the drive's internal air) must not blow
    // up even with steps far larger than its own time constant.
    ht::ThermalNetwork net;
    const auto amb = net.addBoundaryNode("ambient", 25.0);
    const auto air = net.addNode("air", 0.1, 25.0);
    net.setConductance(air, amb, 2.0);
    net.setHeatInput(air, 4.0);
    net.advance(10.0, 0.5); // dt = 10x the node time constant
    EXPECT_NEAR(net.temperature(air), 27.0, 1e-6);
    EXPECT_TRUE(std::isfinite(net.temperature(air)));
}

TEST(ThermalNetwork, SettleMatchesSteadyState)
{
    SingleNodeRig rig(100.0, 2.0, 10.0);
    rig.net.settleToSteadyState();
    EXPECT_NEAR(rig.net.temperature(rig.body), 25.0, 1e-9);
}

TEST(ThermalNetwork, TwoNodeChainSteadyState)
{
    // ambient --G1-- a --G2-- b(Q): T_b = amb + Q/G1 + Q/G2.
    ht::ThermalNetwork net;
    const auto amb = net.addBoundaryNode("ambient", 10.0);
    const auto a = net.addNode("a", 50.0, 10.0);
    const auto b = net.addNode("b", 50.0, 10.0);
    net.setConductance(amb, a, 4.0);
    net.setConductance(a, b, 1.0);
    net.setHeatInput(b, 8.0);
    const auto temps = net.steadyState();
    EXPECT_NEAR(temps[std::size_t(a)], 12.0, 1e-9);
    EXPECT_NEAR(temps[std::size_t(b)], 20.0, 1e-9);
}

TEST(ThermalNetwork, EnergyConservationAtSteadyState)
{
    // Heat into the network equals heat crossing into the boundary.
    ht::ThermalNetwork net;
    const auto amb = net.addBoundaryNode("ambient", 0.0);
    const auto a = net.addNode("a", 10.0, 0.0);
    const auto b = net.addNode("b", 10.0, 0.0);
    net.setConductance(amb, a, 3.0);
    net.setConductance(a, b, 0.7);
    net.setHeatInput(a, 2.0);
    net.setHeatInput(b, 5.0);
    const auto temps = net.steadyState();
    const double flux_out = 3.0 * (temps[std::size_t(a)] - 0.0);
    EXPECT_NEAR(flux_out, 7.0, 1e-9);
}

TEST(ThermalNetwork, IsolatedNodeIsSingular)
{
    ht::ThermalNetwork net;
    net.addBoundaryNode("ambient", 0.0);
    net.addNode("stranded", 10.0, 0.0);
    EXPECT_THROW(net.steadyState(), hu::ModelError);
}

TEST(ThermalNetwork, SetConductanceOverwrites)
{
    SingleNodeRig rig(100.0, 2.0, 10.0);
    rig.net.setConductance(rig.body, rig.ambient, 5.0);
    EXPECT_DOUBLE_EQ(rig.net.conductance(rig.body, rig.ambient), 5.0);
    EXPECT_DOUBLE_EQ(rig.net.conductance(rig.ambient, rig.body), 5.0);
    const auto temps = rig.net.steadyState();
    EXPECT_NEAR(temps[std::size_t(rig.body)], 22.0, 1e-9);
}

TEST(ThermalNetwork, BoundaryTemperatureMoves)
{
    SingleNodeRig rig(100.0, 2.0, 10.0);
    rig.net.setTemperature(rig.ambient, 30.0);
    const auto temps = rig.net.steadyState();
    EXPECT_NEAR(temps[std::size_t(rig.body)], 35.0, 1e-9);
}

TEST(ThermalNetwork, HeatIntoBoundaryRejected)
{
    ht::ThermalNetwork net;
    const auto amb = net.addBoundaryNode("ambient", 0.0);
    EXPECT_THROW(net.setHeatInput(amb, 1.0), hu::ModelError);
}

TEST(ThermalNetwork, RejectsInvalidEdges)
{
    ht::ThermalNetwork net;
    const auto a = net.addNode("a", 1.0, 0.0);
    EXPECT_THROW(net.setConductance(a, a, 1.0), hu::ModelError);
    EXPECT_THROW(net.setConductance(a, 99, 1.0), hu::ModelError);
    EXPECT_THROW(net.setConductance(a, 0, -1.0), hu::ModelError);
}

TEST(ThermalNetwork, AdvanceObserverSeesMonotoneWarmup)
{
    SingleNodeRig rig(100.0, 2.0, 10.0);
    double prev = 20.0;
    int calls = 0;
    rig.net.advance(20.0, 0.1,
                    [&](double, const ht::ThermalNetwork& n) {
                        const double t = n.temperature(1);
                        EXPECT_GE(t, prev - 1e-12);
                        prev = t;
                        ++calls;
                    });
    EXPECT_EQ(calls, 200);
}

TEST(ThermalNetwork, SetAllTemperaturesSkipsBoundary)
{
    SingleNodeRig rig(100.0, 2.0, 10.0, 28.0);
    rig.net.settleToSteadyState();
    rig.net.setAllTemperatures(28.0);
    EXPECT_DOUBLE_EQ(rig.net.temperature(rig.body), 28.0);
    EXPECT_DOUBLE_EQ(rig.net.temperature(rig.ambient), 28.0);
}

/// Timestep-robustness property: the implicit integrator converges to the
/// same trajectory endpoint across a wide range of step sizes.
class TimestepSweep : public ::testing::TestWithParam<double>
{};

TEST_P(TimestepSweep, EndpointInsensitiveToStep)
{
    const double dt = GetParam();
    SingleNodeRig rig(100.0, 2.0, 10.0);
    rig.net.advance(200.0, dt);
    // Analytic: 20 + 5 (1 - e^{-200/50}) = 24.908...
    const double expected = 20.0 + 5.0 * (1.0 - std::exp(-4.0));
    EXPECT_NEAR(rig.net.temperature(rig.body), expected, 0.05 + dt * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Steps, TimestepSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0));

/// Bit-identity property: the cached-factorization stepper reproduces the
/// uncached elimination bit for bit through random sequences of heat,
/// boundary, conductance (same and new value), edge and step-size edits.
TEST(ThermalNetworkCache, StepsBitIdenticalToFreshElimination)
{
    constexpr std::uint64_t kBaseSeed = 20050604;
    for (std::uint64_t k = 0; k < 24; ++k) {
        const std::uint64_t seed = kBaseSeed + k;
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        auto uniform = [&rng](double lo, double hi) {
            return std::uniform_real_distribution<double>(lo, hi)(rng);
        };
        auto pick = [&rng](std::size_t n) {
            return std::size_t(
                std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
        };

        ht::ThermalNetwork net;
        ReferenceNetwork ref;
        std::vector<int> boundary, free_nodes, order;
        // The first node is a boundary; the rest interleave at random, so
        // free-node rows are not a contiguous id range.
        const std::size_t count = 3 + pick(6);
        for (std::size_t i = 0; i < count; ++i) {
            int id;
            if (i == 0 || pick(4) == 0) {
                const double t = uniform(15.0, 35.0);
                id = net.addBoundaryNode("b", t);
                ASSERT_EQ(ref.addBoundaryNode(t), id);
                boundary.push_back(id);
            } else {
                // Capacitances span the near-massless air node to the
                // heavy base casting.
                const double c = std::exp(uniform(std::log(0.05),
                                                  std::log(500.0)));
                const double t = uniform(15.0, 45.0);
                id = net.addNode("f", c, t);
                ASSERT_EQ(ref.addNode(c, t), id);
                free_nodes.push_back(id);
            }
            order.push_back(id);
        }
        if (free_nodes.empty())
            continue;
        // A random spanning tree rooted at the first boundary keeps every
        // free node connected; extra edges add cycles.
        std::vector<std::pair<int, int>> edges;
        auto connect = [&](int a, int b, double g) {
            net.setConductance(a, b, g);
            ref.setConductance(a, b, g);
        };
        for (std::size_t i = 1; i < order.size(); ++i) {
            const int a = order[i];
            const int b = order[pick(i)];
            edges.emplace_back(a, b);
            connect(a, b, uniform(0.05, 10.0));
        }

        double dt = 0.1;
        const double dts[] = {0.1, 0.05, 0.5, 2.0,
                              std::nextafter(0.1, 1.0)};
        for (int op = 0; op < 400; ++op) {
            switch (pick(10)) {
              case 0:
              case 1: {
                const int n = free_nodes[pick(free_nodes.size())];
                const double w = uniform(-2.0, 20.0);
                net.setHeatInput(n, w);
                ref.setHeatInput(n, w);
                break;
              }
              case 2: {
                const int n = boundary[pick(boundary.size())];
                const double t = uniform(10.0, 40.0);
                net.setTemperature(n, t);
                ref.setTemperature(n, t);
                break;
              }
              case 3: {
                // Rewriting the current value must leave results intact.
                const auto [a, b] = edges[pick(edges.size())];
                connect(a, b, net.conductance(a, b));
                break;
              }
              case 4: {
                const auto [a, b] = edges[pick(edges.size())];
                connect(a, b, uniform(0.05, 10.0));
                break;
              }
              case 5: {
                const int a = order[pick(order.size())];
                const int b = order[pick(order.size())];
                if (a != b) {
                    edges.emplace_back(a, b);
                    connect(a, b, uniform(0.0, 3.0));
                }
                break;
              }
              case 6:
                dt = dts[pick(std::size(dts))];
                break;
              default:
                break;
            }
            net.step(dt);
            ref.step(dt);
            const std::string m = firstMismatch(net, ref);
            ASSERT_TRUE(m.empty()) << m << " after op " << op;

            if (op % 50 == 49) {
                const auto got = net.steadyState();
                const auto want = ref.steadyState();
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_TRUE(bitEqual(got[i], want[i]))
                        << "steady node " << i << " after op " << op;
                }
            }
        }
    }
}

TEST(ThermalNetworkCache, IsolatingConductanceMakesNextStepSingular)
{
    // A massive node cut loose keeps its own C/dt on the diagonal, so only
    // a (near-)massless one leaves an empty matrix row.  The step before
    // the cut must not let its (regular) factorization be reused.
    ht::ThermalNetwork net;
    const auto amb = net.addBoundaryNode("ambient", 20.0);
    const auto body = net.addNode("body", 50.0, 20.0);
    const auto film = net.addNode("film", 1e-16, 20.0);
    net.setConductance(amb, body, 2.0);
    net.setConductance(body, film, 1.0);
    net.setHeatInput(body, 3.0);
    for (int i = 0; i < 5; ++i)
        net.step(0.1);

    net.setConductance(body, film, 0.0);
    for (int attempt = 0; attempt < 2; ++attempt) {
        try {
            net.step(0.1);
            ADD_FAILURE() << "step on an isolated massless node succeeded "
                             "(attempt " << attempt << ")";
        } catch (const hu::ModelError& e) {
            EXPECT_NE(std::string(e.what()).find("thermal network is "
                                                 "singular"),
                      std::string::npos)
                << e.what();
        }
    }

    // Reconnecting restores a regular system.
    net.setConductance(body, film, 1.0);
    EXPECT_NO_THROW(net.step(0.1));
    EXPECT_TRUE(std::isfinite(net.temperature(film)));
}

TEST(ThermalNetworkCache, AddNodeAfterStepIsPickedUp)
{
    ht::ThermalNetwork net;
    ReferenceNetwork ref;
    const auto amb = net.addBoundaryNode("ambient", 20.0);
    const auto body = net.addNode("body", 100.0, 20.0);
    ref.addBoundaryNode(20.0);
    ref.addNode(100.0, 20.0);
    net.setConductance(body, amb, 2.0);
    ref.setConductance(body, amb, 2.0);
    net.setHeatInput(body, 10.0);
    ref.setHeatInput(body, 10.0);
    for (int i = 0; i < 10; ++i) {
        net.step(0.1);
        ref.step(0.1);
    }

    // An unconnected, heated node: backward Euler gives exactly
    // T' = T + Q dt / C.  A stale factorization would not see it at all.
    const auto late = net.addNode("late", 30.0, 60.0);
    ASSERT_EQ(ref.addNode(30.0, 60.0), late);
    net.setHeatInput(late, 6.0);
    ref.setHeatInput(late, 6.0);
    net.step(0.1);
    ref.step(0.1);
    EXPECT_NEAR(net.temperature(late), 60.0 + 6.0 * 0.1 / 30.0, 1e-12);
    EXPECT_TRUE(firstMismatch(net, ref).empty()) << firstMismatch(net, ref);

    // A boundary node added later, then wired in, is picked up too.
    const auto sink = net.addBoundaryNode("sink", 5.0);
    ASSERT_EQ(ref.addBoundaryNode(5.0), sink);
    net.setConductance(late, sink, 0.5);
    ref.setConductance(late, sink, 0.5);
    for (int i = 0; i < 10; ++i) {
        net.step(0.1);
        ref.step(0.1);
        ASSERT_TRUE(firstMismatch(net, ref).empty())
            << firstMismatch(net, ref);
    }
    EXPECT_LT(net.temperature(late), 60.0 + 11 * 6.0 * 0.1 / 30.0);
}
