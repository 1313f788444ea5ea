"""Bottleneck analysis (Definition 1 of the paper).

A link ``e`` in the path of session ``s`` is a *bottleneck of s* iff

* the link is saturated: ``sum of the rates of the sessions crossing e == Ce``,
  and
* no session crossing ``e`` has a larger rate than ``s``.

From a max-min fair allocation this module derives, for every link, the paper's
``R*_e`` (sessions restricted at ``e``), ``F*_e`` (sessions crossing ``e`` but
restricted elsewhere) and the bottleneck rate ``B*_e``; and, for every session,
the set of its bottleneck links.  These are used by the verification module,
by the Experiment 3 metrics ("error in network links" is measured over
bottleneck links), and by several tests.
"""

from repro.fairness.algebra import default_algebra


def link_load(sessions, allocation, link):
    """Total allocated rate crossing ``link``."""
    return sum(
        float(allocation.get(session.session_id, 0.0))
        for session in sessions
        if session.crosses(link)
    )


def link_incidence(sessions):
    """Index ``{link_endpoints: (link, [session, ...])}`` over the sessions' paths.

    Links and their member lists are in first-seen order: the order of
    ``sessions``, then path order.  This is the library's one link-membership
    index; callers that run several oracles or many
    :func:`session_bottlenecks` calls over one population build it once and
    pass it in.
    """
    index = {}
    for session in sessions:
        for link in session.links:
            entry = index.get(link.endpoints)
            if entry is None:
                index[link.endpoints] = (link, [session])
            else:
                entry[1].append(session)
    return index


def session_bottlenecks(session, sessions, allocation, algebra=None, incidence=None):
    """Return the links of ``session`` that are bottlenecks of it.

    Args:
        incidence: optional precomputed :func:`link_incidence` of
            ``sessions``; it is rebuilt per call when omitted.
    """
    algebra = algebra or default_algebra()
    if incidence is None:
        incidence = link_incidence(sessions)
    own_rate = float(allocation.get(session.session_id, 0.0))
    result = []
    for link in session.links:
        entry = incidence.get(link.endpoints)
        crossing = entry[1] if entry is not None else ()
        load = sum(float(allocation.get(other.session_id, 0.0)) for other in crossing)
        if not algebra.equal(load, link.capacity):
            continue
        if all(
            algebra.less_equal(float(allocation.get(other.session_id, 0.0)), own_rate)
            for other in crossing
        ):
            result.append(link)
    return result


class BottleneckAnalysis(object):
    """Per-link restricted/unrestricted session sets for an allocation.

    Attributes:
        restricted: ``{link_endpoints: set(session_id)}`` -- the paper's ``R*_e``.
        unrestricted: ``{link_endpoints: set(session_id)}`` -- the paper's ``F*_e``.
        bottleneck_rate: ``{link_endpoints: rate}`` -- ``B*_e`` for links with
            non-empty ``R*_e``.
        bottleneck_links_of: ``{session_id: [link]}``.
    """

    def __init__(self, restricted, unrestricted, bottleneck_rate, bottleneck_links_of, links):
        self.restricted = restricted
        self.unrestricted = unrestricted
        self.bottleneck_rate = bottleneck_rate
        self.bottleneck_links_of = bottleneck_links_of
        self._links = links

    def system_bottlenecks(self):
        """Links that are bottlenecks for *every* session crossing them."""
        result = []
        for endpoints, link in self._links.items():
            restricted = self.restricted.get(endpoints, set())
            unrestricted = self.unrestricted.get(endpoints, set())
            if restricted and not unrestricted:
                result.append(link)
        return result

    def saturated_links(self):
        """Links with a non-empty restricted set (i.e. fully used links)."""
        return [
            self._links[endpoints]
            for endpoints, members in self.restricted.items()
            if members
        ]

    def __repr__(self):
        return "BottleneckAnalysis(links=%d, bottleneck_links=%d)" % (
            len(self._links),
            len(self.saturated_links()),
        )


def analyze_bottlenecks(sessions, allocation, algebra=None):
    """Build a :class:`BottleneckAnalysis` for an allocation.

    The allocation is normally max-min fair, in which case every session has at
    least one bottleneck (or is limited by its own demand); the analysis is
    still well defined for arbitrary feasible allocations, which is how the
    Experiment 3 metrics use it on the transient rates of BFYZ.
    """
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    incidence = link_incidence(sessions)
    links = {endpoints: link for endpoints, (link, _) in incidence.items()}

    restricted = {}
    unrestricted = {}
    bottleneck_rate = {}
    bottleneck_links_of = {session.session_id: [] for session in sessions}

    for endpoints, (link, members) in incidence.items():
        load = sum(float(allocation.get(s.session_id, 0.0)) for s in members)
        saturated = algebra.equal(load, link.capacity)
        if not saturated:
            restricted[endpoints] = set()
            unrestricted[endpoints] = {s.session_id for s in members}
            continue
        largest = max(float(allocation.get(s.session_id, 0.0)) for s in members)
        restricted_here = {
            s.session_id
            for s in members
            if algebra.equal(float(allocation.get(s.session_id, 0.0)), largest)
        }
        restricted[endpoints] = restricted_here
        unrestricted[endpoints] = {
            s.session_id for s in members if s.session_id not in restricted_here
        }
        bottleneck_rate[endpoints] = largest
        for session in members:
            if session.session_id in restricted_here:
                bottleneck_links_of[session.session_id].append(link)

    return BottleneckAnalysis(
        restricted=restricted,
        unrestricted=unrestricted,
        bottleneck_rate=bottleneck_rate,
        bottleneck_links_of=bottleneck_links_of,
        links=links,
    )
