"""Appendix A: approximate temporal butterfly counting.

Both estimators wrap ``count_local``, the single-process exact counter.

sampling  ApproxTBC(+/++): edge sampling with probability p, scale p^-4
sgrapp    sGrappTBC(+/++): window-exact counting + EC^theta cross-window
          estimation per butterfly type, the theta fit on the same
          window pass
"""
