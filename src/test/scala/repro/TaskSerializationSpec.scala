package repro

import java.io.NotSerializableException
import org.apache.spark.SparkException

/** A value that Spark cannot serialize. */
final class Unshippable(val n: Int)

/** A task closure over a value that cannot be serialized fails with Spark's
  * "Task not serializable", naming the class, and the suite goes on. Spark's
  * serialization debugger reads a JDK-internal class to build that message;
  * without `build.sbt`'s `--add-opens` for it, it fails in its static
  * initializer and the suite aborts.
  */
class TaskSerializationSpec extends SparkSpec {

  test("a closure over a non-serializable value fails as Task not serializable, naming the class") {
    val held = new Unshippable(1)
    val e = intercept[SparkException](spark.sparkContext.parallelize(1 to 4).map(_ + held.n).collect())
    assert(e.getMessage.contains("Task not serializable"), e.getMessage)
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    val cause = causes.collectFirst { case c: NotSerializableException => c }
    assert(cause.exists(_.getMessage.contains(classOf[Unshippable].getName)), causes.mkString("\n"))
  }
}
