package repro.video

import repro.video.Knobs._

/** Consumption and storage formats (paper §3.1), and the richer-than tree
  * used by the erosion planner (§4.4).
  */
object Formats {

  /** A consumption format CF<f>: the fidelity of the raw frame sequence
    * supplied to one or more consumers.
    */
  final case class ConsumptionFormat(fidelity: Fidelity) {
    override def toString: String = s"CF<$fidelity>"
  }

  /** A storage format SF<f, c>: one stored version of an ingested stream.
    * RAW coding stores raw frames (fidelity knobs still apply; quality is
    * forced to Best since raw frames lose nothing to compression).
    */
  final case class StorageFormat(fidelity: Fidelity, coding: Coding) {
    /** Dense id in 0 until 15 600 over F x C; equal formats have equal
      * ids.
      */
    def id: Int = fidelity.id * Coding.count + coding.id
    /** R1: this SF can serve a CF iff its fidelity is richer-or-equal. */
    def canServe(cf: ConsumptionFormat): Boolean = fidelity.richerOrEqual(cf.fidelity)
    override def toString: String = s"SF<$fidelity, $coding>"
  }

  /** The golden storage format for a set of CFs: knob-wise max fidelity and
    * the slowest/smallest coding (paper §4.3). It is the ultimate fallback of
    * data erosion and is never eroded.
    */
  def golden(cfs: Seq[ConsumptionFormat]): StorageFormat = {
    require(cfs.nonEmpty, "golden format needs at least one consumption format")
    val f = cfs.map(_.fidelity).reduce(Fidelity.max)
    StorageFormat(f, Coding.slowestSmallest)
  }

  /** Richer-than tree over storage formats: each non-root node's parent is
    * the *least richer* format among those strictly richer than it (ties
    * broken by smaller pixel-rate then toString). The root is richer-or-
    * equal to every other format — the golden format by construction.
    * Consumers fall back from a child to its parent when the child's
    * segments are eroded (§4.4).
    */
  final case class FormatTree(root: StorageFormat, parent: Map[StorageFormat, StorageFormat]) {
    def formats: Vector[StorageFormat] = (parent.keySet + root).toVector
    /** Fallback chain from `sf` (exclusive) up to the root (inclusive). */
    def ancestors(sf: StorageFormat): List[StorageFormat] =
      parent.get(sf) match {
        case Some(p) => p :: ancestors(p)
        case None    => Nil
      }
  }

  /** Build the richer-than tree under `root`, which must be richer-or-equal
    * to every format (the stored golden format is).
    */
  def buildTree(root: StorageFormat, sfs: Seq[StorageFormat]): FormatTree = {
    val distinct = (root +: sfs).distinct.toVector
    require(distinct.forall(o => root.fidelity.richerOrEqual(o.fidelity)),
      s"root $root is not richer-or-equal to every format among $distinct")
    val parentMap = distinct.filterNot(_ == root).map { sf =>
      // Strictly-richer candidates only, except that equal-fidelity formats
      // are ordered by name so ties cannot form a parent cycle; the root
      // itself is always a candidate.
      val candidates = distinct.filter(o =>
        o != sf && (o == root || o.fidelity.richerThan(sf.fidelity) ||
          (o.fidelity == sf.fidelity && o.toString < sf.toString)))
      // least richer candidate: minimal pixel rate, then name for determinism
      val p = candidates.minBy(c => (c.fidelity.pixelRate, c.toString))
      sf -> p
    }.toMap
    FormatTree(root, parentMap)
  }
}
