"""Hamilton's rules, written once.

The integer structure table of heis, from which the frame, the contact
form, the complex structures and the group law's twist are derived, is read
off qmul over the basis units. The product is generic over the scalar type:
components may be ints, floats or fractions.Fraction, and it stays inside
the type it was given.

Basis order is fixed as (1, i, j, k) <-> component names (t, x, y, z),
matching the coordinate naming q = (t^a, x^a, y^a, z^a) used for the group.
"""

from __future__ import annotations


class Quaternion:
    """A quaternion t + x i + y j + z k over any commutative scalar type."""

    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t=0, x=0, y=0, z=0):
        self.t = t
        self.x = x
        self.y = y
        self.z = z

    def __eq__(self, other):
        return (isinstance(other, Quaternion)
                and self.t == other.t and self.x == other.x
                and self.y == other.y and self.z == other.z)

    def __repr__(self):
        return f"Quaternion({self.t}, {self.x}, {self.y}, {self.z})"

    def components(self):
        return [self.t, self.x, self.y, self.z]


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product, i j = k and cyclic, i^2 = j^2 = k^2 = -1."""
    return Quaternion(
        p.t * q.t - p.x * q.x - p.y * q.y - p.z * q.z,
        p.t * q.x + p.x * q.t + p.y * q.z - p.z * q.y,
        p.t * q.y - p.x * q.z + p.y * q.t + p.z * q.x,
        p.t * q.z + p.x * q.y - p.y * q.x + p.z * q.t,
    )
