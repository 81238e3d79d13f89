/**
 * @file
 * 2D-mesh interconnect geometry.
 *
 * The directory coherence model prices every message by Manhattan hop
 * distance on a width x height tile grid: core c sits on tile c, and
 * each physical page has a home tile (page number modulo tile count)
 * whose directory tracks the page's lines.  A flip-current-bit
 * shootdown is one directory transaction at the home of the flipped
 * line's page, matching how Machine::chargeShootdown charges each peer
 * once.
 */

#ifndef SSP_INTERCONNECT_MESH_HH
#define SSP_INTERCONNECT_MESH_HH

#include <bit>

#include "common/logging.hh"
#include "common/types.hh"

namespace ssp
{

/** Tile grid of the mesh; see file doc for the core/home mapping. */
struct MeshGeometry
{
    unsigned width = 1;
    unsigned height = 1;

    /**
     * Geometry for @p cores tiles: a square-ish power-of-two grid (2x2
     * at 4 cores, 8x8 at 64, 16x8 at 128, 16x16 at 256) — the shape
     * real tiled parts use, and one that keeps the bisection growing
     * with sqrt(cores).
     */
    static MeshGeometry
    forCores(unsigned cores)
    {
        ssp_assert(cores >= 1 && cores <= kMaxCores,
                   "mesh supports 1..%u cores, got %u", kMaxCores, cores);
        const unsigned lg = static_cast<unsigned>(std::bit_width(cores - 1));
        const unsigned width = 1u << ((lg + 1) / 2);
        return MeshGeometry{width, (cores + width - 1) / width};
    }

    /** Number of tiles (and of directory home nodes). */
    unsigned tiles() const { return width * height; }

    /** The tile core @p core sits on (identity placement). */
    unsigned tileOf(CoreId core) const { return core; }

    /** The home tile whose directory tracks @p addr's page. */
    unsigned
    homeTile(Addr addr) const
    {
        return static_cast<unsigned>(pageOf(addr) % tiles());
    }

    /** Manhattan hop distance between tiles @p a and @p b. */
    unsigned
    distance(unsigned a, unsigned b) const
    {
        const unsigned ax = a % width, ay = a / width;
        const unsigned bx = b % width, by = b / width;
        return (ax > bx ? ax - bx : bx - ax) +
               (ay > by ? ay - by : by - ay);
    }
};

} // namespace ssp

#endif // SSP_INTERCONNECT_MESH_HH
