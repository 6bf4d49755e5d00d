package repro.perfbench

/** Order statistics and a small JSON writer for the benchmark's report. */
object Report {

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Linear-interpolated percentile `p` (0-100) of `xs`; 0 when empty. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = p / 100.0 * (s.size - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  /** Difference of the medians of `a` and `b`, with the half-width of its
    * ~95 % interval (McGill's notch, 1.58 IQR / sqrt(n), combined over both
    * samples); None when either sample has fewer than `min` values, where
    * the difference would be noise.
    */
  def medianDiff(a: Seq[Double], b: Seq[Double], min: Int): Option[(Double, Double)] =
    if (a.size < min || b.size < min) None
    else {
      def notch(xs: Seq[Double]) = 1.58 * (percentile(xs, 75) - percentile(xs, 25)) / math.sqrt(xs.size.toDouble)
      Some((median(a) - median(b), math.hypot(notch(a), notch(b))))
    }

  /** The highest whole percentile with at least `beyond` samples strictly
    * above it, as (percentile, value); None when there are too few samples.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): Option[(Int, Double)] =
    (99 to 1 by -1).iterator.map(p => p -> percentile(xs, p))
      .find { case (_, v) => xs.count(_ > v) >= beyond }

  /** JSON for strings, numbers (full precision), booleans, options, maps
    * (keys in insertion order) and sequences.
    */
  def json(v: Any): String = v match {
    case null | None        => "null"
    case Some(x)            => json(x)
    case s: String          => quote(s)
    case b: Boolean         => b.toString
    case d: Double          => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int             => n.toString
    case n: Long            => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${json(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]    => xs.map(json).mkString("[", ", ", "]")
    case other              => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= "\\u%04x".format(c.toInt)
      case c    => b += c
    }
    (b += '"').toString
  }
}
