/**
 * @file
 * Generic lumped-parameter thermal network with finite-difference solvers
 * (paper §3.3).
 *
 * Nodes carry a heat capacitance [J/K] and a temperature [°C]; edges carry
 * a thermal conductance [W/K] combining Newton's-law convection
 * (dQ/dt = h A dT) and solid conduction (h = k / thickness).  Boundary
 * nodes (e.g. the externally cooled ambient air) hold a fixed temperature.
 *
 * Two solvers are provided:
 *  - steadyState(): direct linear solve of the energy balance;
 *  - step()/advance(): implicit (backward-Euler) finite-difference
 *    transient integration, unconditionally stable so the paper's 0.1 s
 *    step (600 steps/minute) is safe even with the near-massless internal
 *    air node.
 *
 * The backward-Euler matrix depends only on the topology, the
 * conductances and the step size, so step() factors it once and reuses
 * the factorization until one of those changes; a step then costs a
 * right-hand-side build plus a forward/back substitution, bit-identical
 * to a fresh elimination (docs/MODEL.md §3.3, "Stepping contract").
 */
#ifndef HDDTHERM_THERMAL_NETWORK_H
#define HDDTHERM_THERMAL_NETWORK_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hddtherm::snap {
class StateWriter;
class StateReader;
} // namespace hddtherm::snap

namespace hddtherm::thermal {

/// A lumped thermal node.
struct ThermalNode
{
    std::string name;          ///< Diagnostic label.
    double capacitance = 0.0;  ///< Heat capacity in J/K (0 for boundary).
    double temperatureC = 0.0; ///< Current temperature.
    double heatInputW = 0.0;   ///< External heat injected into this node.
    bool boundary = false;     ///< True if temperature is externally fixed.
};

/// Network of thermal nodes joined by conductances.
class ThermalNetwork
{
  public:
    using NodeId = int;

    /// Add a free node with heat capacity @p capacitance_j_per_k.
    NodeId addNode(std::string name, double capacitance_j_per_k,
                   double initial_temp_c);

    /// Add a boundary (fixed-temperature) node.
    NodeId addBoundaryNode(std::string name, double temp_c);

    /// Create (or overwrite) the conductance between two nodes, in W/K.
    /// Only a new edge or a changed value invalidates step()'s cached
    /// factorization; rewriting the current value is free.
    void setConductance(NodeId a, NodeId b, double conductance_w_per_k);

    /// Current conductance between two nodes (0 if unconnected).
    double conductance(NodeId a, NodeId b) const;

    /// Set the heat injected into a free node, in W.
    void setHeatInput(NodeId node, double watts);

    /// Heat currently injected into @p node.
    double heatInput(NodeId node) const;

    /// Current temperature of @p node.
    double temperature(NodeId node) const;

    /// Force a node's temperature (also moves a boundary node's set-point).
    void setTemperature(NodeId node, double temp_c);

    /// Set every free node to @p temp_c (e.g. cold start at ambient).
    void setAllTemperatures(double temp_c);

    /// Shift every free node by @p delta_c, preserving internal gradients.
    void shiftFreeTemperatures(double delta_c);

    /// Number of nodes.
    int size() const { return int(nodes_.size()); }

    /// Node metadata access.
    const ThermalNode& node(NodeId id) const;

    /**
     * Solve the steady-state energy balance with the current conductances
     * and heat inputs, returning all node temperatures (boundary nodes keep
     * their fixed values).  Does not modify the stored temperatures.
     *
     * @throws util::ModelError if any free node is isolated from every
     *         boundary node (no steady state exists).
     */
    std::vector<double> steadyState() const;

    /// As steadyState(), but also store the result as current temperatures.
    void settleToSteadyState();

    /**
     * Advance one backward-Euler step of @p dt seconds.  The two most
     * recently used factorizations of the system matrix are cached, keyed
     * on the network's generation and the bit pattern of @p dt; a step
     * whose key matches one of them rebuilds only the right-hand side and
     * allocates nothing.  (A control tick that lands just off the step
     * grid integrates one full step plus a tiny remainder step, so two
     * keys alternate.)  Adding a node, changing a conductance's value, or
     * a new @p dt re-factors.
     *
     * @throws util::ModelError if the matrix is singular — a massless
     *         node cut off from every other node — checked on every
     *         re-factorization.
     */
    void step(double dt);

    /**
     * Advance by @p duration seconds in steps of @p dt, invoking
     * @p observer (if given) after every step with (elapsed_s, network).
     */
    void advance(double duration, double dt,
                 const std::function<void(double, const ThermalNetwork&)>&
                     observer = nullptr);

    /// Serialize node temperatures and heat inputs (checkpoint support).
    /// Topology (nodes, edges, conductances) is configuration-derived and
    /// is not saved; restore validates the node count instead.
    void saveState(snap::StateWriter& w) const;

    /// Restore temperatures/heat inputs written by saveState.
    void loadState(snap::StateReader& r);

  private:
    struct Edge
    {
        NodeId a;
        NodeId b;
        double g;
    };

    /**
     * Dense Gaussian elimination with partial pivoting, split into a pass
     * over the matrix (factor) and a pass over the right-hand side
     * (solve).  solve() replays the recorded row swaps and multipliers,
     * zero-multiplier skips included, in elimination order, so it applies
     * to b exactly the floating-point operations that eliminating [A | b]
     * in one go would.
     */
    struct Elimination
    {
        std::size_t n = 0;
        std::vector<double> u;    ///< Row-major n x n; A in, U out.
        std::vector<double> mult; ///< mult[r*n+col]: row r's multiplier.
        std::vector<std::size_t> pivot; ///< Row swapped in at each column.

        /// Size for an n x n system (reusing capacity).
        void resize(std::size_t size);
        void factor();
        /// Overwrites @p b; writes the solution to @p x (both size n).
        void solve(std::vector<double>& b, std::vector<double>& x) const;
    };

    /// A right-hand-side term g * T_boundary, read live at solve time.
    struct BoundaryTerm
    {
        std::size_t row;  ///< Free-node row it adds into.
        std::size_t edge; ///< Index into edges_ (supplies g).
        NodeId boundary;  ///< Node supplying the temperature.
    };

    /// Free-node indexing of the topology, with right-hand-side and
    /// solution storage.
    struct FreeSystem
    {
        std::vector<int> freeIndex; ///< Row of each node, -1 if boundary.
        std::vector<NodeId> rows;   ///< Free node of each row, node order.
        std::vector<BoundaryTerm> terms; ///< In edge order.
        std::vector<double> b;
        std::vector<double> x;
    };

    /// Index the free nodes and boundary terms into @p sys.
    void index(FreeSystem& sys) const;

    /// Assemble the conductance matrix of @p sys, plus @p cdt (C/dt per
    /// row, empty for the steady state) on its diagonal, into @p lu and
    /// factor it.
    void factor(const FreeSystem& sys, const std::vector<double>& cdt,
                Elimination& lu) const;

    /// Add the boundary terms to sys.b, then solve with @p lu into sys.x.
    void solve(FreeSystem& sys, const Elimination& lu) const;

    std::vector<ThermalNode> nodes_;
    std::vector<Edge> edges_;

    /// Bumped by every change the backward-Euler matrix depends on.
    std::uint64_t generation_ = 0;

    /// step()'s cache: the free-node index of one generation and its two
    /// most recently used factorizations.  Generation 0 is the empty
    /// network, which the default (empty) index already describes.
    struct StepCache
    {
        struct Slot
        {
            std::uint64_t dtBits = 0; ///< 0 (dt = +0.0, never valid): empty.
            std::vector<double> cdt;  ///< C/dt per row.
            Elimination lu;
        };
        std::uint64_t generation = 0;
        FreeSystem sys;
        Slot slots[2];
        std::size_t mru = 0; ///< Slot the last step used.
    } step_;
};

} // namespace hddtherm::thermal

#endif // HDDTHERM_THERMAL_NETWORK_H
