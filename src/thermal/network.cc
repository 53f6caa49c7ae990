#include "thermal/network.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "snap/state.h"
#include "util/error.h"

namespace hddtherm::thermal {

ThermalNetwork::NodeId
ThermalNetwork::addNode(std::string name, double capacitance_j_per_k,
                        double initial_temp_c)
{
    HDDTHERM_REQUIRE(capacitance_j_per_k > 0.0,
                     "free nodes need positive heat capacity");
    nodes_.push_back(
        {std::move(name), capacitance_j_per_k, initial_temp_c, 0.0, false});
    ++generation_;
    return int(nodes_.size()) - 1;
}

ThermalNetwork::NodeId
ThermalNetwork::addBoundaryNode(std::string name, double temp_c)
{
    nodes_.push_back({std::move(name), 0.0, temp_c, 0.0, true});
    ++generation_;
    return int(nodes_.size()) - 1;
}

void
ThermalNetwork::setConductance(NodeId a, NodeId b, double conductance_w_per_k)
{
    HDDTHERM_REQUIRE(a >= 0 && a < size() && b >= 0 && b < size() && a != b,
                     "setConductance: invalid node pair");
    HDDTHERM_REQUIRE(conductance_w_per_k >= 0.0,
                     "conductance must be non-negative");
    for (auto& e : edges_) {
        if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
            if (e.g != conductance_w_per_k) {
                e.g = conductance_w_per_k;
                ++generation_;
            }
            return;
        }
    }
    edges_.push_back({a, b, conductance_w_per_k});
    ++generation_;
}

double
ThermalNetwork::conductance(NodeId a, NodeId b) const
{
    for (const auto& e : edges_) {
        if ((e.a == a && e.b == b) || (e.a == b && e.b == a))
            return e.g;
    }
    return 0.0;
}

void
ThermalNetwork::setHeatInput(NodeId node, double watts)
{
    HDDTHERM_REQUIRE(node >= 0 && node < size(), "invalid node");
    HDDTHERM_REQUIRE(!nodes_[std::size_t(node)].boundary,
                     "cannot inject heat into a boundary node");
    nodes_[std::size_t(node)].heatInputW = watts;
}

double
ThermalNetwork::heatInput(NodeId node) const
{
    HDDTHERM_REQUIRE(node >= 0 && node < size(), "invalid node");
    return nodes_[std::size_t(node)].heatInputW;
}

double
ThermalNetwork::temperature(NodeId node) const
{
    HDDTHERM_REQUIRE(node >= 0 && node < size(), "invalid node");
    return nodes_[std::size_t(node)].temperatureC;
}

void
ThermalNetwork::setTemperature(NodeId node, double temp_c)
{
    HDDTHERM_REQUIRE(node >= 0 && node < size(), "invalid node");
    nodes_[std::size_t(node)].temperatureC = temp_c;
}

void
ThermalNetwork::setAllTemperatures(double temp_c)
{
    for (auto& n : nodes_) {
        if (!n.boundary)
            n.temperatureC = temp_c;
    }
}

void
ThermalNetwork::shiftFreeTemperatures(double delta_c)
{
    for (auto& n : nodes_) {
        if (!n.boundary)
            n.temperatureC += delta_c;
    }
}

const ThermalNode&
ThermalNetwork::node(NodeId id) const
{
    HDDTHERM_REQUIRE(id >= 0 && id < size(), "invalid node");
    return nodes_[std::size_t(id)];
}

void
ThermalNetwork::Elimination::resize(std::size_t size)
{
    n = size;
    u.resize(n * n);
    mult.resize(n * n);
    pivot.resize(n);
}

void
ThermalNetwork::Elimination::factor()
{
    // Dense Gaussian elimination with partial pivoting; the networks here
    // have a handful of nodes, so this is both simple and fast.
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t p = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::fabs(u[r * n + col]) > std::fabs(u[p * n + col]))
                p = r;
        }
        HDDTHERM_REQUIRE(std::fabs(u[p * n + col]) > 1e-14,
                         "thermal network is singular (isolated node?)");
        pivot[col] = p;
        if (p != col) {
            std::swap_ranges(u.begin() + std::ptrdiff_t(col * n),
                             u.begin() + std::ptrdiff_t((col + 1) * n),
                             u.begin() + std::ptrdiff_t(p * n));
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = u[r * n + col] / u[col * n + col];
            mult[r * n + col] = f;
            if (f == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                u[r * n + c] -= f * u[col * n + c];
        }
    }
}

void
ThermalNetwork::Elimination::solve(std::vector<double>& b,
                                   std::vector<double>& x) const
{
    for (std::size_t col = 0; col < n; ++col) {
        std::swap(b[col], b[pivot[col]]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = mult[r * n + col];
            if (f == 0.0)
                continue;
            b[r] -= f * b[col];
        }
    }
    for (std::size_t i = n; i-- > 0;) {
        double s = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            s -= u[i * n + c] * x[c];
        x[i] = s / u[i * n + i];
    }
}

void
ThermalNetwork::index(FreeSystem& sys) const
{
    sys.freeIndex.assign(nodes_.size(), -1);
    sys.rows.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (!nodes_[i].boundary) {
            sys.freeIndex[i] = int(sys.rows.size());
            sys.rows.push_back(NodeId(i));
        }
    }
    sys.terms.clear();
    for (std::size_t k = 0; k < edges_.size(); ++k) {
        const Edge& e = edges_[k];
        const int fa = sys.freeIndex[std::size_t(e.a)];
        const int fb = sys.freeIndex[std::size_t(e.b)];
        if (fa >= 0 && fb < 0)
            sys.terms.push_back({std::size_t(fa), k, e.b});
        if (fb >= 0 && fa < 0)
            sys.terms.push_back({std::size_t(fb), k, e.a});
    }
    sys.b.assign(sys.rows.size(), 0.0);
    sys.x.assign(sys.rows.size(), 0.0);
}

void
ThermalNetwork::factor(const FreeSystem& sys, const std::vector<double>& cdt,
                       Elimination& lu) const
{
    // Energy balance per free node i:
    //   steady:  sum_j G_ij (T_j - T_i) + Q_i = 0;
    //   backward Euler:  (C/dt) (T' - T) = Q + sum_j G_ij (T'_j - T'_i)
    //     => (C/dt + sum G) T'_i - sum_j G_ij T'_j = (C/dt) T_i + Q_i + G*Tb.
    // The right-hand side is the caller's (see solve()).
    const std::size_t n = sys.rows.size();
    lu.resize(n);
    auto& a = lu.u;
    std::fill(a.begin(), a.end(), 0.0);
    for (std::size_t r = 0; r < cdt.size(); ++r)
        a[r * n + r] += cdt[r];
    for (const Edge& e : edges_) {
        const int fa = sys.freeIndex[std::size_t(e.a)];
        const int fb = sys.freeIndex[std::size_t(e.b)];
        if (fa >= 0) {
            a[std::size_t(fa) * n + std::size_t(fa)] += e.g;
            if (fb >= 0)
                a[std::size_t(fa) * n + std::size_t(fb)] -= e.g;
        }
        if (fb >= 0) {
            a[std::size_t(fb) * n + std::size_t(fb)] += e.g;
            if (fa >= 0)
                a[std::size_t(fb) * n + std::size_t(fa)] -= e.g;
        }
    }
    lu.factor();
}

void
ThermalNetwork::solve(FreeSystem& sys, const Elimination& lu) const
{
    for (const auto& t : sys.terms) {
        sys.b[t.row] += edges_[t.edge].g *
                        nodes_[std::size_t(t.boundary)].temperatureC;
    }
    lu.solve(sys.b, sys.x);
}

std::vector<double>
ThermalNetwork::steadyState() const
{
    FreeSystem sys;
    index(sys);
    Elimination lu;
    factor(sys, {}, lu);
    for (std::size_t r = 0; r < sys.rows.size(); ++r)
        sys.b[r] = nodes_[std::size_t(sys.rows[r])].heatInputW;
    solve(sys, lu);

    std::vector<double> out;
    out.reserve(nodes_.size());
    for (const auto& n : nodes_)
        out.push_back(n.temperatureC);
    for (std::size_t r = 0; r < sys.rows.size(); ++r)
        out[std::size_t(sys.rows[r])] = sys.x[r];
    return out;
}

void
ThermalNetwork::settleToSteadyState()
{
    const auto temps = steadyState();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (!nodes_[i].boundary)
            nodes_[i].temperatureC = temps[i];
    }
}

void
ThermalNetwork::step(double dt)
{
    HDDTHERM_REQUIRE(dt > 0.0, "step size must be positive");

    StepCache& cache = step_;
    FreeSystem& sys = cache.sys;
    if (cache.generation != generation_) {
        index(sys);
        // Size both slots up front: the first step at a second dt (a
        // tick's remainder step) then re-factors without allocating.
        for (auto& slot : cache.slots) {
            slot.dtBits = 0;
            slot.cdt.resize(sys.rows.size());
            slot.lu.resize(sys.rows.size());
        }
        cache.generation = generation_;
    }

    const auto dt_bits = std::bit_cast<std::uint64_t>(dt);
    if (cache.slots[cache.mru].dtBits != dt_bits) {
        cache.mru ^= 1;
        auto& slot = cache.slots[cache.mru];
        if (slot.dtBits != dt_bits) {
            // A singular matrix throws out of factor() and leaves the slot
            // empty, so the next step re-factors (and throws) again.
            slot.dtBits = 0;
            for (std::size_t r = 0; r < sys.rows.size(); ++r) {
                slot.cdt[r] =
                    nodes_[std::size_t(sys.rows[r])].capacitance / dt;
            }
            factor(sys, slot.cdt, slot.lu);
            slot.dtBits = dt_bits;
        }
    }
    const auto& slot = cache.slots[cache.mru];

    // Right-hand side, accumulated into a zeroed vector in the order the
    // elimination always used: (C/dt) T_i + Q_i, then G*Tb in edge order.
    std::fill(sys.b.begin(), sys.b.end(), 0.0);
    for (std::size_t r = 0; r < sys.rows.size(); ++r) {
        const ThermalNode& node = nodes_[std::size_t(sys.rows[r])];
        sys.b[r] += slot.cdt[r] * node.temperatureC + node.heatInputW;
    }
    solve(sys, slot.lu);
    for (std::size_t r = 0; r < sys.rows.size(); ++r)
        nodes_[std::size_t(sys.rows[r])].temperatureC = sys.x[r];
}

void
ThermalNetwork::advance(
    double duration, double dt,
    const std::function<void(double, const ThermalNetwork&)>& observer)
{
    HDDTHERM_REQUIRE(duration >= 0.0 && dt > 0.0, "invalid advance request");
    double elapsed = 0.0;
    while (elapsed < duration) {
        const double h = std::min(dt, duration - elapsed);
        step(h);
        elapsed += h;
        if (observer)
            observer(elapsed, *this);
    }
}


void
ThermalNetwork::saveState(snap::StateWriter& w) const
{
    std::vector<double> temps, heats;
    temps.reserve(nodes_.size());
    heats.reserve(nodes_.size());
    for (const auto& node : nodes_) {
        temps.push_back(node.temperatureC);
        heats.push_back(node.heatInputW);
    }
    w.f64vec("net.temps", temps);
    w.f64vec("net.heat", heats);
}

void
ThermalNetwork::loadState(snap::StateReader& r)
{
    const auto temps = r.f64vec("net.temps");
    const auto heats = r.f64vec("net.heat");
    HDDTHERM_REQUIRE(temps.size() == nodes_.size() &&
                         heats.size() == nodes_.size(),
                     "checkpoint section '" + r.section() +
                         "': thermal node count does not match this "
                         "run's configuration");
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i].temperatureC = temps[i];
        nodes_[i].heatInputW = heats[i];
    }
}

} // namespace hddtherm::thermal
